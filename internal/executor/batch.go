package executor

import (
	"repro/internal/sqltypes"
)

// Batch execution: every operator moves rows in batches of up to
// BatchSize. One batch amortizes per-row interpretation overhead (page
// pins, iterator virtual calls, expression dispatch) across its rows.
//
// Ownership contract: the rows delivered in a Batch are valid only
// until the next NextBatch or Close call on the same iterator.
// Producers reuse the batch backing; consumers that retain rows beyond
// one batch (sort, hash-join build, result collection) must copy them,
// e.g. through a rowArena. The Batch itself belongs to the caller:
// producers append row headers into b.Rows (never alias their own
// slices there), so a pass-through operator — filter, project, strip,
// distinct, limit — hands its caller's batch to its input and rewrites
// b.Rows in place.

// BatchSize is the largest number of rows an operator puts in one
// batch (a heap scan may overshoot it by the rest of a page): large
// enough to amortize per-batch costs, small enough to stay
// cache-resident. Batches grow on demand up to it, so a point select
// pays for one row, not for BatchSize.
const BatchSize = 1024

// Batch is a reusable container of rows. The caller owns the struct;
// producers fill Rows reusing its capacity.
type Batch struct {
	Rows []sqltypes.Row
}

// Reset empties the batch, keeping capacity.
func (b *Batch) Reset() { b.Rows = b.Rows[:0] }

// RowBatchIter produces rows a batch at a time. NextBatch fills b
// (reusing its capacity) and reports whether the batch holds any rows;
// ok=false means the input is exhausted and b is empty. Consumers stop
// at the first ok=false. Implementations are not safe for concurrent
// use.
type RowBatchIter interface {
	NextBatch(b *Batch) (bool, error)
	Close() error
}

// rowArena carves stable row copies out of shared chunks, so
// materializing rows costs one allocation per chunk instead of one per
// row. Chunks grow geometrically from a small start (point lookups
// materialize a handful of values; scans settle on maxArenaChunk-value
// chunks). Carved rows are never overwritten — full-capacity slicing
// keeps later appends from aliasing them — and abandoned chunks are
// garbage-collected as soon as their carved rows are dropped, so a
// consumer that discards rows never accumulates the whole scan.
type rowArena struct {
	buf []sqltypes.Value
}

const (
	minArenaChunk = 64
	maxArenaChunk = 8192
)

// grow ensures the current chunk has room for need more values,
// starting a fresh chunk otherwise.
func (a *rowArena) grow(need int) {
	if cap(a.buf)-len(a.buf) >= need {
		return
	}
	size := 2 * cap(a.buf)
	if size < minArenaChunk {
		size = minArenaChunk
	}
	if size > maxArenaChunk {
		size = maxArenaChunk
	}
	if need > size {
		size = need
	}
	a.buf = make([]sqltypes.Value, 0, size)
}

// Clone copies row into the arena and returns the stable copy.
func (a *rowArena) Clone(row sqltypes.Row) sqltypes.Row {
	return a.Combine(row, nil)
}

// Combine copies the concatenation of left and right into the arena.
func (a *rowArena) Combine(left, right sqltypes.Row) sqltypes.Row {
	a.grow(len(left) + len(right))
	start := len(a.buf)
	a.buf = append(a.buf, left...)
	a.buf = append(a.buf, right...)
	return sqltypes.Row(a.buf[start:len(a.buf):len(a.buf)])
}
