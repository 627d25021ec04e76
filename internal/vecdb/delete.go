package vecdb

import "fmt"

// Deletion support. Data management is not append-only: corrections,
// retention rules, and flywheel feedback replacement all remove vectors.
// Flat and IVF delete eagerly; HNSW uses tombstones (its graph links are
// expensive to repair), filtering them at search time.

// Delete removes id from the Flat index.
func (f *Flat) Delete(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	i, ok := f.pos[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	last := len(f.ids) - 1
	bi, bl := i/flatBlockRows, last/flatBlockRows
	dst, di := f.blocks[bi], i%flatBlockRows
	src, si := f.blocks[bl], last%flatBlockRows
	for d := 0; d < f.dim; d++ {
		dst[d*f.blockCap+di] = src[d*f.blockCap+si]
	}
	f.ids[i] = f.ids[last]
	f.pos[f.ids[i]] = i
	f.ids = f.ids[:last]
	delete(f.pos, id)
	// The last block is no longer full. A row moved into an earlier
	// block, which stays full, changes its columns: seal it again.
	f.sealed[bl] = nil
	if bi != bl {
		f.seal(bi)
	}
	// Release a block the removal emptied; the first block always stays.
	if last > 0 && si == 0 {
		f.blocks[bl] = nil
		f.blocks, f.sealed = f.blocks[:bl], f.sealed[:bl]
	}
	return nil
}

// Delete removes id from the IVF index (trained or not).
func (iv *IVF) Delete(id string) error {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	if !iv.ids[id] {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	delete(iv.ids, id)
	remove := func(entries []entry) ([]entry, bool) {
		for i, e := range entries {
			if e.id == id {
				entries[i] = entries[len(entries)-1]
				return entries[:len(entries)-1], true
			}
		}
		return entries, false
	}
	var removed bool
	if iv.pending, removed = remove(iv.pending); removed {
		return nil
	}
	for c := range iv.cells {
		if iv.cells[c], removed = remove(iv.cells[c]); removed {
			return nil
		}
	}
	return fmt.Errorf("%w: %q (index inconsistent)", ErrNotFound, id)
}

// Delete tombstones id in the HNSW graph: the node keeps routing
// traffic but never appears in results. Tombstoned ids cannot be
// re-added (graph identity is permanent).
func (h *HNSW) Delete(id string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	idx, ok := h.pos[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if h.tombstones == nil {
		h.tombstones = make(map[int]bool)
	}
	if h.tombstones[idx] {
		return fmt.Errorf("%w: %q already deleted", ErrNotFound, id)
	}
	h.tombstones[idx] = true
	return nil
}

// Deleted reports the number of tombstoned nodes.
func (h *HNSW) Deleted() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.tombstones)
}
