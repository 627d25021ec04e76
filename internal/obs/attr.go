package obs

// AttrKind discriminates an Attr's payload.
type AttrKind uint8

// Attribute payload kinds.
const (
	// AttrFloat renders via the shortest-round-trip float form the
	// exporter uses for every number.
	AttrFloat AttrKind = iota
	// AttrInt renders as a decimal integer.
	AttrInt
	// AttrStr renders as a JSON string literal.
	AttrStr
)

// Attr is one typed span or instant attribute. Attributes ride in the
// Chrome-trace event's "args" object, rendered key-sorted so trace
// bytes stay a pure function of the recorded data; the key "reason"
// is reserved for the terminal annotation set by EndReason. Construct
// with I or S; a float attribute is a literal of Kind AttrFloat.
type Attr struct {
	Key  string
	Kind AttrKind
	// Num, Int, and Str carry the payload for the matching Kind; the
	// other two are ignored.
	Num float64
	Int int64
	Str string
}

// I builds an integer-valued attribute.
func I(key string, v int64) Attr { return Attr{Key: key, Kind: AttrInt, Int: v} }

// S builds a string-valued attribute.
func S(key, v string) Attr { return Attr{Key: key, Kind: AttrStr, Str: v} }

// appendValue renders the attribute's payload as a JSON value.
func (a Attr) appendValue(dst []byte) []byte {
	switch a.Kind {
	case AttrInt:
		return appendInt(dst, a.Int)
	case AttrStr:
		return appendStr(dst, a.Str)
	default:
		return appendNum(dst, a.Num)
	}
}

// attr returns the first attribute with the given key.
func findAttr(attrs []Attr, key string) (Attr, bool) {
	for _, a := range attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// Attr returns the span's first attribute with the given key.
func (s Span) Attr(key string) (Attr, bool) { return findAttr(s.Attrs, key) }

// Attr returns the instant's first attribute with the given key.
func (in Instant) Attr(key string) (Attr, bool) { return findAttr(in.Attrs, key) }
