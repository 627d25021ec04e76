package relation

import (
	"fmt"
	"sort"
)

// AggFunc enumerates aggregate functions.
type AggFunc int

// Supported aggregates.
const (
	Count AggFunc = iota
	Sum
	Avg
	Min
	Max
)

// String returns the SQL name of the aggregate.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Avg:
		return "avg"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("agg(%d)", int(f))
	}
}

// Agg is one aggregate specification: Func applied to Col, output named As.
// Count ignores Col ("count(*)").
type Agg struct {
	Func AggFunc
	Col  string
	As   string
}

// GroupBy groups rows by the named columns and computes the aggregates.
// With no group columns, the whole table forms one group (scalar
// aggregation). Output schema: group columns, then one column per Agg.
func (t *Table) GroupBy(groupCols []string, aggs []Agg) (*Table, error) {
	groupIdx := make([]int, len(groupCols))
	schema := make(Schema, 0, len(groupCols)+len(aggs))
	for i, c := range groupCols {
		idx, err := t.Schema.Index(c)
		if err != nil {
			return nil, err
		}
		groupIdx[i] = idx
		schema = append(schema, t.Schema[idx])
	}
	aggIdx := make([]int, len(aggs))
	for i, a := range aggs {
		if a.Func == Count {
			aggIdx[i] = -1
		} else {
			idx, err := t.Schema.Index(a.Col)
			if err != nil {
				return nil, err
			}
			ct := t.Schema[idx].Type
			if ct != Int && ct != Float && !(a.Func == Min || a.Func == Max) {
				return nil, fmt.Errorf("%w: %s over %s column %q", ErrType, a.Func, ct, a.Col)
			}
			aggIdx[i] = idx
		}
		name := a.As
		if name == "" {
			name = a.Func.String() + "_" + a.Col
			if a.Func == Count {
				name = "count"
			}
		}
		typ := Float
		if a.Func == Count {
			typ = Int
		} else if a.Func == Min || a.Func == Max {
			typ = t.Schema[aggIdx[i]].Type
		}
		schema = append(schema, Column{Name: name, Type: typ})
	}
	if err := schema.validate(); err != nil {
		return nil, err
	}

	type group struct {
		sample Row // representative row for group column values
		rows   []Row
	}
	groups := make(map[string]*group)
	var order []string
	for _, r := range t.Rows {
		k := ""
		for _, gi := range groupIdx {
			k += keyOf(r[gi]) + "\x01"
		}
		g, ok := groups[k]
		if !ok {
			g = &group{sample: r}
			groups[k] = g
			order = append(order, k)
		}
		g.rows = append(g.rows, r)
	}
	// Scalar aggregation over an empty table still yields one row of
	// zero-counts, matching SQL semantics for COUNT.
	if len(groupCols) == 0 && len(order) == 0 {
		groups[""] = &group{}
		order = append(order, "")
	}
	sort.Strings(order) // deterministic output independent of map order

	out := &Table{Name: t.Name, Schema: schema}
	for _, k := range order {
		g := groups[k]
		row := make(Row, 0, len(schema))
		for _, gi := range groupIdx {
			row = append(row, g.sample[gi])
		}
		for i, a := range aggs {
			row = append(row, computeAgg(a.Func, g.rows, aggIdx[i]))
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func computeAgg(f AggFunc, rows []Row, idx int) Value {
	if f == Count {
		return int64(len(rows))
	}
	var vals []Value
	for _, r := range rows {
		if r[idx] != nil {
			vals = append(vals, r[idx])
		}
	}
	if len(vals) == 0 {
		return nil
	}
	switch f {
	case Sum, Avg:
		var s float64
		for _, v := range vals {
			fv, _ := toFloat(v)
			s += fv
		}
		if f == Avg {
			s /= float64(len(vals))
		}
		return s
	case Min:
		best := vals[0]
		for _, v := range vals[1:] {
			if valueLess(v, best) {
				best = v
			}
		}
		return best
	case Max:
		best := vals[0]
		for _, v := range vals[1:] {
			if valueLess(best, v) {
				best = v
			}
		}
		return best
	}
	return nil
}
