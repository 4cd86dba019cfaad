package executor

import (
	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/sqltypes"
)

type hashJoinC struct {
	left, right compiled
	leftKeys    []expr.Compiled // bound against left output
	rightKeys   []expr.Compiled // bound against right output
	residual    expr.Compiled   // bound against combined output
	leftWidth   int
}

func (cp *compiler) compileHashJoin(n *optimizer.HashJoin, depth int) (compiled, error) {
	left, err := cp.compile(n.Left, depth+1)
	if err != nil {
		return nil, err
	}
	right, err := cp.compile(n.Right, depth+1)
	if err != nil {
		return nil, err
	}
	c := &hashJoinC{left: left, right: right, leftWidth: len(n.Left.Out())}
	lres := resolverFor(n.Left.Out())
	rres := resolverFor(n.Right.Out())
	for _, e := range n.LeftKeys {
		ce, err := expr.Bind(e, lres)
		if err != nil {
			return nil, err
		}
		c.leftKeys = append(c.leftKeys, ce)
	}
	for _, e := range n.RightKeys {
		ce, err := expr.Bind(e, rres)
		if err != nil {
			return nil, err
		}
		c.rightKeys = append(c.rightKeys, ce)
	}
	if c.residual, err = bindOpt(n.Residual, resolverFor(n.Out())); err != nil {
		return nil, err
	}
	return c, nil
}

// joinKey encodes the key values into buf, reusing its capacity, and
// returns the extended buffer; ok=false if any value is NULL (SQL equi
// joins never match on NULL). Callers keep one buffer per execution so
// key encoding is allocation-free after the first row.
func joinKey(buf []byte, env *expr.Env, keys []expr.Compiled) ([]byte, bool, error) {
	buf = buf[:0]
	for _, k := range keys {
		v, err := k.Eval(env)
		if err != nil {
			return buf, false, err
		}
		if v.IsNull() {
			return buf, false, nil
		}
		buf = sqltypes.EncodeKey(buf, v)
	}
	return buf, true, nil
}

// buildHashTable drains the build side into the key→rows table. In
// batch mode build rows are copied into an arena (batch producers
// reuse row backing); row iterators yield stable rows, stored as-is.
func (c *hashJoinC) buildHashTable(rt *runtime, batch bool) (map[string][]sqltypes.Row, error) {
	table := map[string][]sqltypes.Row{}
	env := expr.Env{Params: rt.ctx.Params}
	var keyBuf []byte
	addRow := func(row sqltypes.Row) error {
		env.Row = row
		var ok bool
		var err error
		keyBuf, ok, err = joinKey(keyBuf, &env, c.rightKeys)
		if err != nil {
			return err
		}
		if ok {
			table[string(keyBuf)] = append(table[string(keyBuf)], row)
		}
		return nil
	}
	if batch {
		rit, err := openBatchOf(c.right, rt)
		if err != nil {
			return nil, err
		}
		defer rit.Close()
		var arena RowArena
		var b Batch
		for {
			ok, err := rit.NextBatch(&b)
			if err != nil {
				return nil, err
			}
			if !ok {
				return table, nil
			}
			rt.ctx.Tuples += int64(len(b.Rows))
			for _, row := range b.Rows {
				if err := addRow(arena.Clone(row)); err != nil {
					return nil, err
				}
			}
		}
	}
	rit, err := c.right.open(rt)
	if err != nil {
		return nil, err
	}
	defer rit.Close()
	for {
		row, ok, err := rit.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return table, nil
		}
		rt.ctx.Tuples++
		if err := addRow(row); err != nil {
			return nil, err
		}
	}
}

func (c *hashJoinC) open(rt *runtime) (RowIter, error) {
	// Build phase on the right input.
	table, err := c.buildHashTable(rt, false)
	if err != nil {
		return nil, err
	}
	lit, err := c.left.open(rt)
	if err != nil {
		return nil, err
	}
	out := RowIter(&hashProbeIter{
		left: lit, table: table, keys: c.leftKeys,
		env: expr.Env{Params: rt.ctx.Params}, ctx: rt.ctx,
	})
	return maybeFilter(out, c.residual, rt), nil
}

// openBatch runs both join inputs batch-at-a-time: the build side is
// drained directly, the probe side feeds the row-at-a-time probe loop
// through BatchToRows (probing is inherently row-at-a-time here), and
// the output is re-batched. All tuple counts match open exactly.
func (c *hashJoinC) openBatch(rt *runtime) (RowBatchIter, error) {
	table, err := c.buildHashTable(rt, true)
	if err != nil {
		return nil, err
	}
	lit, err := openBatchOf(c.left, rt)
	if err != nil {
		return nil, err
	}
	out := RowIter(&hashProbeIter{
		left: BatchToRows(lit), table: table, keys: c.leftKeys,
		env: expr.Env{Params: rt.ctx.Params}, ctx: rt.ctx,
	})
	return RowsToBatch(maybeFilter(out, c.residual, rt)), nil
}

type hashProbeIter struct {
	left    RowIter
	table   map[string][]sqltypes.Row
	keys    []expr.Compiled
	env     expr.Env
	ctx     *Ctx
	current sqltypes.Row
	matches []sqltypes.Row
	mpos    int
	keyBuf  []byte
	arena   RowArena
}

func (it *hashProbeIter) Next() (sqltypes.Row, bool, error) {
	for {
		if it.mpos < len(it.matches) {
			r := it.matches[it.mpos]
			it.mpos++
			it.ctx.Tuples++
			return it.arena.Combine(it.current, r), true, nil
		}
		row, ok, err := it.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		it.ctx.Tuples++
		it.env.Row = row
		it.keyBuf, ok, err = joinKey(it.keyBuf, &it.env, it.keys)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			continue
		}
		it.current = row
		it.matches = it.table[string(it.keyBuf)]
		it.mpos = 0
	}
}

func (it *hashProbeIter) Close() error { return it.left.Close() }

type loopJoinC struct {
	left, right compiled
	cond        expr.Compiled
}

func (cp *compiler) compileLoopJoin(n *optimizer.LoopJoin, depth int) (compiled, error) {
	left, err := cp.compile(n.Left, depth+1)
	if err != nil {
		return nil, err
	}
	right, err := cp.compile(n.Right, depth+1)
	if err != nil {
		return nil, err
	}
	c := &loopJoinC{left: left, right: right}
	if c.cond, err = bindOpt(n.Cond, resolverFor(n.Out())); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *loopJoinC) open(rt *runtime) (RowIter, error) {
	rit, err := c.right.open(rt)
	if err != nil {
		return nil, err
	}
	rights, err := Collect(rit)
	if err != nil {
		return nil, err
	}
	lit, err := c.left.open(rt)
	if err != nil {
		return nil, err
	}
	out := RowIter(&loopJoinIter{left: lit, rights: rights, ctx: rt.ctx, rpos: len(rights)})
	return maybeFilter(out, c.cond, rt), nil
}

type loopJoinIter struct {
	left    RowIter
	rights  []sqltypes.Row
	ctx     *Ctx
	current sqltypes.Row
	rpos    int
	arena   RowArena
}

func (it *loopJoinIter) Next() (sqltypes.Row, bool, error) {
	for {
		if it.rpos < len(it.rights) {
			r := it.rights[it.rpos]
			it.rpos++
			it.ctx.Tuples++
			return it.arena.Combine(it.current, r), true, nil
		}
		row, ok, err := it.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		it.ctx.Tuples++
		it.current = row
		it.rpos = 0
	}
}

func (it *loopJoinIter) Close() error { return it.left.Close() }

type indexJoinC struct {
	left     compiled
	table    string
	index    string          // "" for the primary B-tree
	keys     []expr.Compiled // bound against left output
	residual expr.Compiled   // bound against combined output
}

func (cp *compiler) compileIndexJoin(n *optimizer.IndexJoin, depth int) (compiled, error) {
	left, err := cp.compile(n.Left, depth+1)
	if err != nil {
		return nil, err
	}
	c := &indexJoinC{left: left, table: n.Table, index: probeIndex(n.Index, n.Primary)}
	lres := resolverFor(n.Left.Out())
	for _, e := range n.LeftKeys {
		ce, err := expr.Bind(e, lres)
		if err != nil {
			return nil, err
		}
		c.keys = append(c.keys, ce)
	}
	if c.residual, err = bindOpt(n.Residual, resolverFor(n.Out())); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *indexJoinC) open(rt *runtime) (RowIter, error) {
	lit, err := c.left.open(rt)
	if err != nil {
		return nil, err
	}
	inner, err := rt.st.IndexProbe(c.table, c.index)
	if err != nil {
		lit.Close()
		return nil, err
	}
	out := RowIter(&indexJoinIter{c: c, rt: rt, left: lit, inner: inner, env: expr.Env{Params: rt.ctx.Params}})
	return maybeFilter(out, c.residual, rt), nil
}

// indexJoinIter probes one reusable index cursor per outer row; the
// probe key range is built into lo/hi, which live as long as the
// operator.
type indexJoinIter struct {
	c       *indexJoinC
	rt      *runtime
	left    RowIter
	env     expr.Env
	current sqltypes.Row
	inner   IndexCursor
	probing bool // inner holds the current outer row's range
	lo, hi  []byte
	arena   RowArena
}

func (it *indexJoinIter) Next() (sqltypes.Row, bool, error) {
	for {
		if it.probing {
			r, ok, err := it.inner.Next()
			if err != nil {
				return nil, false, err
			}
			if ok {
				it.rt.ctx.Tuples++
				return it.arena.Combine(it.current, r), true, nil
			}
			it.probing = false
		}
		row, ok, err := it.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		it.rt.ctx.Tuples++
		it.current = row
		it.env.Row = row
		it.lo, it.hi, ok, err = buildRange(&it.env, it.c.keys, nil, nil, false, false, it.lo, it.hi)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			continue // NULL probe key: no matches
		}
		it.inner.Range(it.lo, it.hi)
		it.probing = true
	}
}

func (it *indexJoinIter) Close() error {
	it.inner.Close()
	return it.left.Close()
}
