package executor

import (
	"errors"

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

// buildHashTable drains the build side into the key→rows table. Build
// rows are copied into an arena, since batch producers reuse their row
// backing.
func (c *hashJoinC) buildHashTable(rt *runtime) (map[string][]sqltypes.Row, error) {
	rit, err := c.right.open(rt)
	if err != nil {
		return nil, err
	}
	defer rit.Close()
	table := map[string][]sqltypes.Row{}
	env := expr.Env{Params: rt.ctx.Params}
	var keyBuf []byte
	var arena rowArena
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
			env.Row = row
			keyBuf, ok, err = joinKey(keyBuf, &env, c.rightKeys)
			if err != nil {
				return nil, err
			}
			if ok {
				table[string(keyBuf)] = append(table[string(keyBuf)], arena.Clone(row))
			}
		}
	}
}

func (c *hashJoinC) open(rt *runtime) (RowBatchIter, error) {
	// Build phase on the right input.
	table, err := c.buildHashTable(rt)
	if err != nil {
		return nil, err
	}
	lit, err := c.left.open(rt)
	if err != nil {
		return nil, err
	}
	m := &hashMatcher{table: table, keys: c.leftKeys, env: expr.Env{Params: rt.ctx.Params}}
	return maybeFilter(&joinIter{left: lit, m: m, ctx: rt.ctx}, c.residual, rt.ctx), nil
}

// matcher yields the inner rows that match one outer row: start
// positions it on a new outer row (ok=false: nothing can match, e.g. a
// NULL key), next returns the matches one at a time.
type matcher interface {
	start(left sqltypes.Row) (bool, error)
	next() (sqltypes.Row, bool, error)
	close() error
}

// joinIter is the probe loop shared by the three join methods: it
// pulls the outer input a batch at a time and emits each outer row
// combined with each of its matches. An output batch stops at
// BatchSize rows; the next call resumes at the same outer row and
// match, so fan-out never grows a batch past BatchSize. Every outer
// row and every match counts as one tuple. Combined rows are carved
// from an arena, so they stay valid after the outer batch refills.
type joinIter struct {
	left     RowBatchIter
	m        matcher
	ctx      *Ctx
	lb       Batch        // current outer batch
	lpos     int          // next outer row in lb
	cur      sqltypes.Row // outer row being matched; aliases lb
	matching bool         // m is positioned on cur
	done     bool         // outer input exhausted
	arena    rowArena
}

func (it *joinIter) NextBatch(b *Batch) (bool, error) {
	b.Reset()
	for len(b.Rows) < BatchSize {
		if it.matching {
			r, ok, err := it.m.next()
			if err != nil {
				return false, err
			}
			if ok {
				it.ctx.Tuples++
				b.Rows = append(b.Rows, it.arena.Combine(it.cur, r))
				continue
			}
			it.matching = false
		}
		if it.lpos == len(it.lb.Rows) {
			if it.done {
				break
			}
			ok, err := it.left.NextBatch(&it.lb)
			if err != nil {
				return false, err
			}
			it.lpos = 0
			it.done = !ok
			continue
		}
		it.cur = it.lb.Rows[it.lpos]
		it.lpos++
		it.ctx.Tuples++
		var err error
		if it.matching, err = it.m.start(it.cur); err != nil {
			return false, err
		}
	}
	return len(b.Rows) > 0, nil
}

func (it *joinIter) Close() error {
	return errors.Join(it.m.close(), it.left.Close())
}

// hashMatcher looks the outer row's key up in the built hash table.
type hashMatcher struct {
	table   map[string][]sqltypes.Row
	keys    []expr.Compiled
	env     expr.Env
	keyBuf  []byte
	matches []sqltypes.Row
	pos     int
}

func (m *hashMatcher) start(left sqltypes.Row) (bool, error) {
	m.env.Row = left
	var ok bool
	var err error
	m.keyBuf, ok, err = joinKey(m.keyBuf, &m.env, m.keys)
	if err != nil || !ok {
		return false, err
	}
	m.matches, m.pos = m.table[string(m.keyBuf)], 0
	return true, nil
}

func (m *hashMatcher) next() (sqltypes.Row, bool, error) {
	if m.pos == len(m.matches) {
		return nil, false, nil
	}
	m.pos++
	return m.matches[m.pos-1], true, nil
}

func (m *hashMatcher) close() error { return nil }

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

func (c *loopJoinC) open(rt *runtime) (RowBatchIter, error) {
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
	m := &loopMatcher{rights: rights}
	return maybeFilter(&joinIter{left: lit, m: m, ctx: rt.ctx}, c.cond, rt.ctx), nil
}

// loopMatcher matches every outer row with every materialized inner
// row; the join condition filters the combined rows.
type loopMatcher struct {
	rights []sqltypes.Row
	pos    int
}

func (m *loopMatcher) start(sqltypes.Row) (bool, error) {
	m.pos = 0
	return true, nil
}

func (m *loopMatcher) next() (sqltypes.Row, bool, error) {
	if m.pos == len(m.rights) {
		return nil, false, nil
	}
	m.pos++
	return m.rights[m.pos-1], true, nil
}

func (m *loopMatcher) close() error { return nil }

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

func (c *indexJoinC) open(rt *runtime) (RowBatchIter, error) {
	lit, err := c.left.open(rt)
	if err != nil {
		return nil, err
	}
	cur, err := rt.st.IndexProbe(c.table, c.index)
	if err != nil {
		lit.Close()
		return nil, err
	}
	m := &indexMatcher{keys: c.keys, cur: cur, env: expr.Env{Params: rt.ctx.Params}}
	return maybeFilter(&joinIter{left: lit, m: m, ctx: rt.ctx}, c.residual, rt.ctx), nil
}

// indexMatcher probes one reusable index cursor per outer row; the
// probe key range is built into lo/hi, which live as long as the
// operator. It probes while the outer input sits between batches,
// which is why scans hold no pin or latch there.
type indexMatcher struct {
	keys   []expr.Compiled
	cur    IndexCursor
	env    expr.Env
	lo, hi []byte
}

func (m *indexMatcher) start(left sqltypes.Row) (bool, error) {
	m.env.Row = left
	var ok bool
	var err error
	m.lo, m.hi, ok, err = buildRange(&m.env, m.keys, nil, nil, false, false, m.lo, m.hi)
	if err != nil || !ok {
		return false, err // a NULL probe key matches nothing
	}
	m.cur.Range(m.lo, m.hi)
	return true, nil
}

func (m *indexMatcher) next() (sqltypes.Row, bool, error) { return m.cur.Next() }

func (m *indexMatcher) close() error { return m.cur.Close() }
