package serving

// KVManager tracks KV cache block allocation for in-flight sequences.
// Implementations differ in *how much* they reserve — the E13 subject.
//
// A sequence is named by an int handle: a small, dense, non-negative
// index the caller keeps unique among the sequences it holds (a serving
// instance recycles its own), so managers index a slice instead of
// hashing a string. A handle is free again once Freed.
type KVManager interface {
	// Alloc reserves space for a new sequence currently holding tokens.
	// It reports false when the reservation does not fit or h already
	// holds a reservation.
	Alloc(h int, tokens int) bool
	// Extend grows sequence h to newTotal tokens, reporting false on
	// exhaustion (paged) or when h holds nothing — contiguous never
	// fails within MaxSeqLen.
	Extend(h int, newTotal int) bool
	// Free releases sequence h (a no-op when h holds nothing).
	Free(h int)
	// UsedBlocks and PeakBlocks report current and high-water occupancy.
	UsedBlocks() int
	PeakBlocks() int
	// Capacity is the total block count.
	Capacity() int
}

// covering returns s grown with zero values until s[h] exists.
func covering[T any](s []T, h int) []T {
	if h < len(s) {
		return s
	}
	return append(s, make([]T, h+1-len(s))...)
}

// ContiguousKV models the pre-vLLM allocator: every admitted sequence
// reserves blocks for the maximum sequence length up front, "wasting a
// significant amount of memory for shorter inputs".
type ContiguousKV struct {
	cfg        GPUConfig
	perSeq     int
	used, peak int
	owners     []bool // owners[h]: handle h holds a reservation
}

// NewContiguousKV builds the preallocating manager.
func NewContiguousKV(cfg GPUConfig) *ContiguousKV {
	perSeq := (cfg.MaxSeqLen + cfg.BlockSize - 1) / cfg.BlockSize
	return &ContiguousKV{cfg: cfg, perSeq: perSeq}
}

func (c *ContiguousKV) owns(h int) bool {
	return h >= 0 && h < len(c.owners) && c.owners[h]
}

// Alloc implements KVManager.
func (c *ContiguousKV) Alloc(h int, tokens int) bool {
	if h < 0 || c.owns(h) || tokens > c.cfg.MaxSeqLen {
		return false
	}
	if c.used+c.perSeq > c.cfg.KVBlocks {
		return false
	}
	c.owners = covering(c.owners, h)
	c.owners[h] = true
	c.used += c.perSeq
	if c.used > c.peak {
		c.peak = c.used
	}
	return true
}

// Extend implements KVManager: preallocation means growth is free.
func (c *ContiguousKV) Extend(h int, newTotal int) bool {
	return c.owns(h) && newTotal <= c.cfg.MaxSeqLen
}

// Free implements KVManager.
func (c *ContiguousKV) Free(h int) {
	if c.owns(h) {
		c.owners[h] = false
		c.used -= c.perSeq
	}
}

// UsedBlocks implements KVManager.
func (c *ContiguousKV) UsedBlocks() int { return c.used }

// PeakBlocks implements KVManager.
func (c *ContiguousKV) PeakBlocks() int { return c.peak }

// Capacity implements KVManager.
func (c *ContiguousKV) Capacity() int { return c.cfg.KVBlocks }

// PagedKV models vLLM's block allocator [28]: sequences hold exactly the
// blocks their current length needs, growing one block at a time.
type PagedKV struct {
	cfg        GPUConfig
	used, peak int
	held       []int // held[h]: 1 + blocks handle h holds, 0 when none
}

// NewPagedKV builds the paged manager.
func NewPagedKV(cfg GPUConfig) *PagedKV {
	return &PagedKV{cfg: cfg}
}

// blocks reports the blocks handle h holds and whether it holds a
// reservation at all (which may be of zero blocks).
func (p *PagedKV) blocks(h int) (int, bool) {
	if h < 0 || h >= len(p.held) || p.held[h] == 0 {
		return 0, false
	}
	return p.held[h] - 1, true
}

func (p *PagedKV) blocksFor(tokens int) int {
	if tokens <= 0 {
		return 0
	}
	return (tokens + p.cfg.BlockSize - 1) / p.cfg.BlockSize
}

// Alloc implements KVManager.
func (p *PagedKV) Alloc(h int, tokens int) bool {
	if _, held := p.blocks(h); h < 0 || held || tokens > p.cfg.MaxSeqLen {
		return false
	}
	need := p.blocksFor(tokens)
	if p.used+need > p.cfg.KVBlocks {
		return false
	}
	p.held = covering(p.held, h)
	p.held[h] = need + 1
	p.used += need
	if p.used > p.peak {
		p.peak = p.used
	}
	return true
}

// Extend implements KVManager.
func (p *PagedKV) Extend(h int, newTotal int) bool {
	have, ok := p.blocks(h)
	if !ok || newTotal > p.cfg.MaxSeqLen {
		return false
	}
	need := p.blocksFor(newTotal)
	if need <= have {
		return true
	}
	delta := need - have
	if p.used+delta > p.cfg.KVBlocks {
		return false
	}
	p.held[h] = need + 1
	p.used += delta
	if p.used > p.peak {
		p.peak = p.used
	}
	return true
}

// Free implements KVManager.
func (p *PagedKV) Free(h int) {
	if n, ok := p.blocks(h); ok {
		p.held[h] = 0
		p.used -= n
	}
}

// UsedBlocks implements KVManager.
func (p *PagedKV) UsedBlocks() int { return p.used }

// PeakBlocks implements KVManager.
func (p *PagedKV) PeakBlocks() int { return p.peak }

// Capacity implements KVManager.
func (p *PagedKV) Capacity() int { return p.cfg.KVBlocks }

// prefixEntry is one cached prefix: its token span and a logical
// recency stamp (the cache's lookup counter at last touch — never wall
// time, so eviction order is a pure function of the lookup sequence).
type prefixEntry struct {
	tokens int
	use    uint64
}

// PrefixCache tracks shared prompt prefixes whose KV is resident and
// reusable across requests — Prompt Cache [22] / vLLM shared prefix /
// TensorRT-LLM KV reuse [3]. A prefix is warmed by the first request
// that computes it; later requests skip prefilling those tokens.
//
// A tiered cache (RecoveryConfig.PrefixGPUTokens) has two tiers: when
// the GPU tier overflows, the coldest prefix is *demoted* to a CPU tier
// rather than forgotten, a CPU hit promotes it back at a
// bandwidth-charged transfer cost (netted against the saved prefill,
// like SessionStore), and the CPU tier survives Invalidate — host
// memory outlives the crash that wiped the device.
type PrefixCache struct {
	// gpuCap bounds the device-resident tier (0 = unbounded); cpuCap
	// sizes the host tier that cold prefixes demote into instead of
	// being evicted (0 = no host tier: demotion drops).
	gpuCap, cpuCap int
	// prefillTokensPerMS converts a promotion's fetch time into
	// prefill-token equivalents, mirroring SessionStore's pricing.
	prefillTokensPerMS float64
	gpu                map[string]*prefixEntry
	cpu                map[string]*prefixEntry
	gpuUsed, cpuUsed   int // resident tokens per tier
	clock              uint64
	hits, misses       int
	cpuHits            int // hits served from the host tier (promotions)
	demotions          int // prefixes pushed off the GPU tier by pressure
}

// NewPrefixCache returns an empty unbounded single-tier cache.
func NewPrefixCache() *PrefixCache {
	return newTieredPrefixCache(0, 0, 0)
}

// newTieredPrefixCache returns an empty cache with a GPU tier of
// gpuCap tokens over a host tier of cpuCap, on a GPU that prefills
// prefillTokensPerMS.
func newTieredPrefixCache(gpuCap, cpuCap int, prefillTokensPerMS float64) *PrefixCache {
	return &PrefixCache{
		gpuCap: gpuCap, cpuCap: cpuCap, prefillTokensPerMS: prefillTokensPerMS,
		gpu: make(map[string]*prefixEntry),
		cpu: make(map[string]*prefixEntry),
	}
}

// SavedTokens reports how many prompt tokens of r can be skipped (net
// of any promotion transfer), and warms the cache with r's prefix when
// it misses.
func (pc *PrefixCache) SavedTokens(prefixID string, prefixTokens int) int {
	if pc == nil || prefixID == "" || prefixTokens <= 0 {
		return 0
	}
	pc.clock++
	if e, ok := pc.gpu[prefixID]; ok {
		pc.hits++
		e.use = pc.clock
		if e.tokens < prefixTokens {
			return e.tokens
		}
		return prefixTokens
	}
	if e, ok := pc.cpu[prefixID]; ok {
		// Host-tier hit: promote back to the device, netting the fetch
		// cost (in prefill-token equivalents) against the saved span.
		pc.hits++
		pc.cpuHits++
		e.use = pc.clock
		usable := min(e.tokens, prefixTokens)
		delete(pc.cpu, prefixID)
		pc.cpuUsed -= e.tokens
		pc.insertGPU(prefixID, e)
		saved := usable - int(float64(usable)*prefixXferMSPerToken*pc.prefillTokensPerMS)
		if saved < 0 {
			saved = 0
		}
		return saved
	}
	pc.misses++
	pc.insertGPU(prefixID, &prefixEntry{tokens: prefixTokens, use: pc.clock})
	return 0
}

// insertGPU places e on the device tier, demoting the coldest residents
// until it fits. An entry larger than the whole tier is uncacheable.
func (pc *PrefixCache) insertGPU(id string, e *prefixEntry) {
	limit := pc.gpuCap
	if limit > 0 && e.tokens > limit {
		return
	}
	pc.gpu[id] = e
	pc.gpuUsed += e.tokens
	if limit <= 0 {
		return
	}
	for pc.gpuUsed > limit {
		v := coldestPrefix(pc.gpu)
		if v == "" {
			return
		}
		pc.demote(v)
	}
}

// demote moves a prefix off the GPU tier: into the host tier when one
// is configured (evicting its own coldest entries to fit), gone
// otherwise.
func (pc *PrefixCache) demote(id string) {
	e := pc.gpu[id]
	delete(pc.gpu, id)
	pc.gpuUsed -= e.tokens
	pc.demotions++
	if pc.cpuCap <= 0 || e.tokens > pc.cpuCap {
		return
	}
	pc.cpu[id] = e
	pc.cpuUsed += e.tokens
	for pc.cpuUsed > pc.cpuCap {
		v := coldestPrefix(pc.cpu)
		ev := pc.cpu[v]
		delete(pc.cpu, v)
		pc.cpuUsed -= ev.tokens
	}
}

// coldestPrefix picks the eviction victim: minimum recency stamp,
// smallest id on ties — a deterministic choice however the map
// iterates. Recency stamps are unique (one lookup, one stamp), so the
// tie-break is belt and braces.
func coldestPrefix(m map[string]*prefixEntry) string {
	vid := ""
	var best uint64
	for id, e := range m {
		if vid == "" || e.use < best || (e.use == best && id < vid) {
			vid, best = id, e.use
		}
	}
	return vid
}

// Stats reports hit/miss counts (host-tier hits included in hits); a nil
// cache reports zeros, as TierStats does.
func (pc *PrefixCache) Stats() (hits, misses int) {
	if pc == nil {
		return 0, 0
	}
	return pc.hits, pc.misses
}

// TierStats reports the two-tier traffic: hits served from the host
// tier and prefixes demoted off the device tier. Both are zero for an
// unbounded single-tier cache.
func (pc *PrefixCache) TierStats() (cpuHits, demotions int) {
	if pc == nil {
		return 0, 0
	}
	return pc.cpuHits, pc.demotions
}

// Invalidate forgets every GPU-resident prefix — an instance crash
// takes the device KV with it. The CPU tier survives: host memory
// outlives the GPU, which is exactly why demotion beats eviction under
// a fault plan. Hit/miss counters survive too: they count lookups, not
// residency.
func (pc *PrefixCache) Invalidate() {
	if pc == nil {
		return
	}
	pc.gpu = make(map[string]*prefixEntry)
	pc.gpuUsed = 0
}

// MaxConcurrent reports how many sequences of the given prompt+output
// length the manager could hold at once — the E13 concurrency headroom
// comparison.
// Probe i holds handle i.
func MaxConcurrent(m KVManager, promptTokens, outputTokens int) int {
	n := 0
	for m.Alloc(n, promptTokens+outputTokens) {
		n++
	}
	for i := 0; i < n; i++ {
		m.Free(i)
	}
	return n
}
