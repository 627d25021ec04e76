package training

import "fmt"

// Checkpoint materializes a distributed training state: the step it was
// taken at, the parallel configuration, and one parameter shard per
// worker. Real systems shard tensors; the simulator shards float32
// slices, which is enough to verify the resharding invariant the
// paper's checkpointing systems (DCP [51], UCP [33], ByteCheckpoint
// [56]) are built around.
type Checkpoint struct {
	Step    int
	Workers int
	// Shards holds each worker's contiguous parameter range. Shard
	// lengths may differ by one when the total is not divisible.
	Shards [][]float32
}

// ErrCheckpoint indicates a malformed or inconsistent checkpoint.
var ErrCheckpoint = fmt.Errorf("training: bad checkpoint")

// NewCheckpoint shards params across workers in contiguous ranges.
func NewCheckpoint(step int, params []float32, workers int) (*Checkpoint, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("%w: workers %d", ErrConfig, workers)
	}
	if len(params) == 0 {
		return nil, fmt.Errorf("%w: no parameters", ErrCheckpoint)
	}
	ck := &Checkpoint{Step: step, Workers: workers, Shards: make([][]float32, workers)}
	base := len(params) / workers
	extra := len(params) % workers
	pos := 0
	for w := 0; w < workers; w++ {
		n := base
		if w < extra {
			n++
		}
		shard := make([]float32, n)
		copy(shard, params[pos:pos+n])
		ck.Shards[w] = shard
		pos += n
	}
	return ck, nil
}

// Flatten reassembles the full parameter vector.
func (c *Checkpoint) Flatten() []float32 {
	var total int
	for _, s := range c.Shards {
		total += len(s)
	}
	out := make([]float32, 0, total)
	for _, s := range c.Shards {
		out = append(out, s...)
	}
	return out
}

// TotalParams reports the parameter count across shards.
func (c *Checkpoint) TotalParams() int {
	n := 0
	for _, s := range c.Shards {
		n += len(s)
	}
	return n
}

// Reshard redistributes the checkpoint for a new data-parallel degree —
// the core operation of UCP/ByteCheckpoint: "the parallel configuration
// may change during training, necessitating checkpoint resharding".
func (c *Checkpoint) Reshard(newWorkers int) (*Checkpoint, error) {
	if newWorkers <= 0 {
		return nil, fmt.Errorf("%w: workers %d", ErrConfig, newWorkers)
	}
	return NewCheckpoint(c.Step, c.Flatten(), newWorkers)
}

// Validate checks internal consistency.
func (c *Checkpoint) Validate() error {
	if c.Workers != len(c.Shards) {
		return fmt.Errorf("%w: %d workers but %d shards", ErrCheckpoint, c.Workers, len(c.Shards))
	}
	if c.Workers == 0 {
		return fmt.Errorf("%w: empty", ErrCheckpoint)
	}
	return nil
}
