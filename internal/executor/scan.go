package executor

import (
	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// resolverFor builds an expression resolver over a node's output
// columns.
func resolverFor(cols []optimizer.OutCol) *expr.SimpleResolver {
	r := &expr.SimpleResolver{Cols: make([]expr.ResolvedCol, len(cols))}
	for i, c := range cols {
		r.Cols[i] = expr.ResolvedCol{Table: c.Table, Name: c.Name, Type: c.Type}
	}
	return r
}

// bindOpt binds an optional expression (nil stays nil).
func bindOpt(e sqlparser.Expr, r expr.Resolver) (expr.Compiled, error) {
	if e == nil {
		return nil, nil
	}
	return expr.Bind(e, r)
}

// filterIter applies a predicate batch-at-a-time: its input fills the
// caller's batch, the predicate column is evaluated with
// expr.EvalBatch, and the passing rows are compacted in place. Every
// input row counts as one tuple.
type filterIter struct {
	in   RowBatchIter
	pred expr.Compiled
	env  expr.Env
	ctx  *Ctx
	vals []sqltypes.Value // predicate column scratch
}

func (it *filterIter) NextBatch(b *Batch) (bool, error) {
	for {
		ok, err := it.in.NextBatch(b)
		if err != nil || !ok {
			return false, err
		}
		it.ctx.Tuples += int64(len(b.Rows))
		it.vals, err = expr.EvalBatch(it.pred, &it.env, b.Rows, it.vals[:0])
		if err != nil {
			return false, err
		}
		kept := b.Rows[:0]
		for i, row := range b.Rows {
			if it.vals[i].Bool() {
				kept = append(kept, row)
			}
		}
		b.Rows = kept
		if len(b.Rows) > 0 {
			return true, nil
		}
	}
}

func (it *filterIter) Close() error { return it.in.Close() }

// maybeFilter applies an optional predicate (a join residual) to in.
func maybeFilter(in RowBatchIter, pred expr.Compiled, ctx *Ctx) RowBatchIter {
	if pred == nil {
		return in
	}
	return &filterIter{in: in, pred: pred, env: expr.Env{Params: ctx.Params}, ctx: ctx}
}

// scanLeaf counts the tuples a scan produces: every row an unfiltered
// scan yields, every row a pushed-down filter examines.
func scanLeaf(in RowBatchIter, filter expr.Compiled, ctx *Ctx) RowBatchIter {
	if filter == nil {
		return &countingIter{in: in, ctx: ctx}
	}
	return maybeFilter(in, filter, ctx)
}

// countingIter counts tuples flowing through an unfiltered scan.
type countingIter struct {
	in  RowBatchIter
	ctx *Ctx
}

func (it *countingIter) NextBatch(b *Batch) (bool, error) {
	ok, err := it.in.NextBatch(b)
	it.ctx.Tuples += int64(len(b.Rows))
	return ok, err
}

func (it *countingIter) Close() error { return it.in.Close() }

type seqScanC struct {
	table  string
	filter expr.Compiled
}

func compileSeqScan(n *optimizer.SeqScan) (compiled, error) {
	f, err := bindOpt(n.Filter, resolverFor(n.Cols))
	if err != nil {
		return nil, err
	}
	return &seqScanC{table: n.Table, filter: f}, nil
}

func (c *seqScanC) open(rt *runtime) (RowBatchIter, error) {
	it, err := rt.st.ScanTable(c.table)
	if err != nil {
		return nil, err
	}
	return scanLeaf(it, c.filter, rt.ctx), nil
}

type indexScanC struct {
	table  string
	index  string // "" for the primary B-tree
	eq     []expr.Compiled
	lo, hi expr.Compiled
	loIncl bool
	hiIncl bool
	filter expr.Compiled
}

// probeIndex names the B-tree an index access reads through
// Storage.IndexProbe: the plan's index, or "" for the primary B-tree.
func probeIndex(index string, primary bool) string {
	if primary {
		return ""
	}
	return index
}

func compileIndexScan(n *optimizer.IndexScan) (compiled, error) {
	res := resolverFor(n.Cols)
	c := &indexScanC{table: n.Table, index: probeIndex(n.Index, n.Primary),
		loIncl: n.LoIncl, hiIncl: n.HiIncl}
	// Key expressions are constant (literals/params): bind with an
	// empty row resolver.
	konst := &expr.SimpleResolver{}
	for _, e := range n.Eq {
		ce, err := expr.Bind(e, konst)
		if err != nil {
			return nil, err
		}
		c.eq = append(c.eq, ce)
	}
	var err error
	if c.lo, err = bindOpt(n.Lo, konst); err != nil {
		return nil, err
	}
	if c.hi, err = bindOpt(n.Hi, konst); err != nil {
		return nil, err
	}
	if c.filter, err = bindOpt(n.Filter, res); err != nil {
		return nil, err
	}
	return c, nil
}

// buildRange computes the [lo, hi) key range for an equality prefix
// plus optional range bounds, appending to lo[:0] and hi[:0] so a
// caller can keep their storage across probes. Returns ok=false when a
// probe value is NULL (no row can match).
func buildRange(env *expr.Env, eq []expr.Compiled, loE, hiE expr.Compiled, loIncl, hiIncl bool, lo, hi []byte) ([]byte, []byte, bool, error) {
	lo = lo[:0]
	for _, ce := range eq {
		v, err := ce.Eval(env)
		if err != nil {
			return lo, hi, false, err
		}
		if v.IsNull() {
			return lo, hi, false, nil
		}
		lo = sqltypes.EncodeKey(lo, v)
	}
	hi = append(hi[:0], lo...)
	switch {
	case loE == nil && hiE == nil:
		hi = append(hi, 0xFF)
	default:
		if loE != nil {
			v, err := loE.Eval(env)
			if err != nil {
				return lo, hi, false, err
			}
			if v.IsNull() {
				return lo, hi, false, nil
			}
			lo = sqltypes.EncodeKey(lo, v)
			if !loIncl {
				lo = append(lo, 0xFF)
			}
		}
		if hiE != nil {
			v, err := hiE.Eval(env)
			if err != nil {
				return lo, hi, false, err
			}
			if v.IsNull() {
				return lo, hi, false, nil
			}
			hi = sqltypes.EncodeKey(hi, v)
			if hiIncl {
				hi = append(hi, 0xFF)
			}
		} else {
			hi = append(hi, 0xFF)
		}
	}
	return lo, hi, true, nil
}

func (c *indexScanC) open(rt *runtime) (RowBatchIter, error) {
	env := expr.Env{Params: rt.ctx.Params}
	lo, hi, ok, err := buildRange(&env, c.eq, c.lo, c.hi, c.loIncl, c.hiIncl, nil, nil)
	if err != nil {
		return nil, err
	}
	if !ok {
		return &SliceRowIter{}, nil
	}
	cur, err := rt.st.IndexProbe(c.table, c.index)
	if err != nil {
		return nil, err
	}
	cur.Range(lo, hi)
	return scanLeaf(&cursorIter{cur: cur}, c.filter, rt.ctx), nil
}

// cursorIter batches an index cursor's rows. Cursor rows are stable,
// so the batch aliases them. Exhaustion is latched: an exhausted
// cursor is not asked again.
type cursorIter struct {
	cur  IndexCursor
	done bool
}

func (it *cursorIter) NextBatch(b *Batch) (bool, error) {
	b.Reset()
	for !it.done && len(b.Rows) < BatchSize {
		row, ok, err := it.cur.Next()
		if err != nil {
			return false, err
		}
		if !ok {
			it.done = true
			break
		}
		b.Rows = append(b.Rows, row)
	}
	return len(b.Rows) > 0, nil
}

func (it *cursorIter) Close() error { return it.cur.Close() }
