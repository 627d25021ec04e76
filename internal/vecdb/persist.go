package vecdb

import (
	"encoding/gob"
	"fmt"
	"io"
)

// snapshot is the on-disk representation of a Flat index.
type snapshot struct {
	Dim  int
	IDs  []string
	Vecs [][]float32
}

// Save serializes the Flat index to w in gob format. The snapshot is
// copied under the read lock, so writes that race with Save never tear
// it; encoding runs after the lock is released.
func (f *Flat) Save(w io.Writer) error {
	f.mu.RLock()
	snap := snapshot{Dim: f.dim, IDs: append([]string(nil), f.ids...), Vecs: make([][]float32, len(f.ids))}
	rows := make([]float32, len(f.ids)*f.dim)
	for i := range snap.Vecs {
		snap.Vecs[i] = rows[i*f.dim : (i+1)*f.dim]
		f.row(i, snap.Vecs[i])
	}
	f.mu.RUnlock()
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("vecdb: save: %w", err)
	}
	return nil
}

// LoadFlat reads a Flat index previously written by Save.
func LoadFlat(r io.Reader) (*Flat, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("vecdb: load: %w", err)
	}
	if len(snap.Vecs) != len(snap.IDs) {
		return nil, fmt.Errorf("vecdb: load: %d ids but %d vectors", len(snap.IDs), len(snap.Vecs))
	}
	f := NewFlat(snap.Dim)
	for i, id := range snap.IDs {
		if len(snap.Vecs[i]) != snap.Dim {
			return nil, fmt.Errorf("vecdb: load: %w: vector %d", ErrDimension, i)
		}
		if err := f.Add(id, snap.Vecs[i]); err != nil {
			return nil, fmt.Errorf("vecdb: load: %w", err)
		}
	}
	return f, nil
}
