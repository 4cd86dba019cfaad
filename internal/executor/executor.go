// Package executor compiles optimizer plans into batch-at-a-time
// iterators (see batch.go) and runs them against a Storage
// implementation provided by the engine. Compiled plans are immutable
// and reusable — the engine's plan cache holds them across executions,
// which produces the cache warm-up effect of the paper's Figure 5.
package executor

import (
	"fmt"

	"repro/internal/optimizer"
	"repro/internal/sqltypes"
)

// Storage is the data-access surface the executor runs against. Key
// ranges use the order-preserving sqltypes.EncodeKey encoding; hi is
// exclusive.
type Storage interface {
	// ScanTable scans all rows of a base or virtual table a batch at a
	// time. Between NextBatch calls the scan holds no page pin and no
	// latch, so a consumer may probe other structures — the same table
	// included — while it holds a batch.
	ScanTable(name string) (RowBatchIter, error)
	// IndexProbe opens a reusable cursor over one B-tree of a table:
	// the named secondary index, or the table's primary B-tree when
	// index is "". Everything a probe needs is resolved here, once per
	// operator open.
	IndexProbe(table, index string) (IndexCursor, error)
}

// IndexCursor yields, one at a time, the base rows whose index entry
// falls in the key range last given to Range; it yields nothing before
// the first Range. Range copies lo and hi, so callers may reuse their
// buffers, and it may be called again at any point to start a new
// probe. Returned rows stay valid after the next probe.
type IndexCursor interface {
	Range(lo, hi []byte)
	Next() (sqltypes.Row, bool, error)
	Close() error
}

// Ctx carries per-execution state: bound parameters, the actual-CPU
// counter the monitor records (one unit ≈ one tuple operation) and an
// optional per-operator trace (see trace.go).
type Ctx struct {
	Params []sqltypes.Value
	Tuples int64
	// Trace, when non-nil, receives per-operator row/time counts for
	// this execution. It must come from the same Prepared's NewTrace.
	Trace *ExecTrace
	// Parallel is the maximum intra-query worker count for morsel-driven
	// subtrees (see parallel.go). 0 or 1 keeps execution serial.
	Parallel int
	// Morsels, WorkerNanos and ParallelRuns accumulate morsel-execution
	// telemetry for this statement: morsels dispatched, summed worker
	// wall time, and how many operators fanned out.
	Morsels      int64
	WorkerNanos  int64
	ParallelRuns int64
}

// Prepared is a compiled, reusable plan.
type Prepared struct {
	root  compiled
	out   []optimizer.OutCol
	spans []SpanMeta // operator descriptions in pre-order
}

// Columns returns the output column descriptions.
func (p *Prepared) Columns() []optimizer.OutCol { return p.out }

// Run opens the plan against storage. The returned iterator must be
// closed.
func (p *Prepared) Run(st Storage, ctx *Ctx) (RowBatchIter, error) {
	rt := &runtime{st: st, ctx: ctx}
	return p.root.open(rt)
}

type runtime struct {
	st  Storage
	ctx *Ctx
}

// compiled is a factory for one plan operator's iterator.
type compiled interface {
	open(rt *runtime) (RowBatchIter, error)
}

// Compile binds every expression in the plan and returns a reusable
// Prepared.
func Compile(plan *optimizer.Plan) (*Prepared, error) {
	var cp compiler
	root, err := cp.compile(plan.Root, 0)
	if err != nil {
		return nil, err
	}
	return &Prepared{root: root, out: plan.Root.Out(), spans: cp.spans}, nil
}

// compiler walks the plan tree assigning pre-order span IDs; operators
// with inputs compile their children through it so IDs stay aligned
// with the SpanMeta slice.
type compiler struct {
	spans []SpanMeta
}

func (cp *compiler) compile(n optimizer.Node, depth int) (compiled, error) {
	id := len(cp.spans)
	cp.spans = append(cp.spans, spanMetaFor(n, depth))
	var inner compiled
	var err error
	switch x := n.(type) {
	case *optimizer.SeqScan:
		inner, err = compileSeqScan(x)
	case *optimizer.IndexScan:
		inner, err = compileIndexScan(x)
	case *optimizer.HashJoin:
		inner, err = cp.compileHashJoin(x, depth)
	case *optimizer.LoopJoin:
		inner, err = cp.compileLoopJoin(x, depth)
	case *optimizer.IndexJoin:
		inner, err = cp.compileIndexJoin(x, depth)
	case *optimizer.Agg:
		inner, err = cp.compileAgg(x, depth)
	case *optimizer.Project:
		inner, err = cp.compileProject(x, depth)
	case *optimizer.Sort:
		inner, err = cp.compileSort(x, depth)
	case *optimizer.Strip:
		inner, err = cp.compileStrip(x, depth)
	case *optimizer.Distinct:
		inner, err = cp.compileDistinct(x, depth)
	case *optimizer.Limit:
		inner, err = cp.compileLimit(x, depth)
	default:
		return nil, fmt.Errorf("executor: unsupported plan node %T", n)
	}
	if err != nil {
		return nil, err
	}
	return &tracedC{inner: inner, id: id}, nil
}

// SliceRowIter iterates a materialized row slice a batch at a time.
// The engine uses it for virtual tables; materializing operators (sort,
// agg) use it for their outputs. The rows are stable, so batches alias
// them.
type SliceRowIter struct {
	Rows []sqltypes.Row
	pos  int
}

// NextBatch implements RowBatchIter.
func (it *SliceRowIter) NextBatch(b *Batch) (bool, error) {
	b.Reset()
	end := min(it.pos+BatchSize, len(it.Rows))
	b.Rows = append(b.Rows, it.Rows[it.pos:end]...)
	it.pos = end
	return len(b.Rows) > 0, nil
}

// Close implements RowBatchIter.
func (it *SliceRowIter) Close() error { return nil }

// Collect drains a batch iterator into a slice of stable rows and
// closes it.
func Collect(bi RowBatchIter) ([]sqltypes.Row, error) {
	defer bi.Close()
	var out []sqltypes.Row
	var arena rowArena
	var b Batch
	for {
		ok, err := bi.NextBatch(&b)
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		for _, row := range b.Rows {
			out = append(out, arena.Clone(row))
		}
	}
}
