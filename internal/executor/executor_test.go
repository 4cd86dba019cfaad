package executor

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// memStorage is an in-memory executor.Storage for direct operator
// tests. Index entries are sorted lazily per call.
type memStorage struct {
	tables  map[string][]sqltypes.Row
	indexes map[string]memIndex // name -> index over a table
	primary map[string]memIndex // table -> primary index
}

type memIndex struct {
	table string
	cols  []int // column offsets forming the key
}

func (m *memStorage) ScanTable(name string) (RowBatchIter, error) {
	rows, ok := m.tables[name]
	if !ok {
		return nil, fmt.Errorf("mem: no table %q", name)
	}
	return &SliceRowIter{Rows: rows}, nil
}

// memCursor is memStorage's IndexCursor: each Range re-filters the
// table through the index key.
type memCursor struct {
	m    *memStorage
	idx  memIndex
	rows []sqltypes.Row
	pos  int
}

func (c *memCursor) Next() (sqltypes.Row, bool, error) {
	if c.pos == len(c.rows) {
		return nil, false, nil
	}
	c.pos++
	return c.rows[c.pos-1], true, nil
}

func (c *memCursor) Close() error { return nil }

func (c *memCursor) Range(lo, hi []byte) {
	c.rows, c.pos = nil, 0
	for _, row := range c.m.tables[c.idx.table] {
		var key []byte
		for _, col := range c.idx.cols {
			key = sqltypes.EncodeKey(key, row[col])
		}
		if bytes.Compare(key, lo) >= 0 && bytes.Compare(key, hi) < 0 {
			c.rows = append(c.rows, row)
		}
	}
}

func (m *memStorage) IndexProbe(table, index string) (IndexCursor, error) {
	idx, ok := m.indexes[index]
	if index == "" {
		idx, ok = m.primary[table]
	}
	if !ok {
		return nil, fmt.Errorf("mem: no index %q on %q", index, table)
	}
	return &memCursor{m: m, idx: idx}, nil
}

func newMemStorage() *memStorage {
	m := &memStorage{
		tables:  map[string][]sqltypes.Row{},
		indexes: map[string]memIndex{},
		primary: map[string]memIndex{},
	}
	// users(id, name, dept)
	for i := 0; i < 100; i++ {
		m.tables["users"] = append(m.tables["users"], sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewText(fmt.Sprintf("user%02d", i)),
			sqltypes.NewInt(int64(i % 5)),
		})
	}
	// depts(dept, title)
	for i := 0; i < 5; i++ {
		m.tables["depts"] = append(m.tables["depts"], sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewText(fmt.Sprintf("dept-%d", i)),
		})
	}
	m.primary["users"] = memIndex{table: "users", cols: []int{0}}
	m.indexes["ix_dept"] = memIndex{table: "users", cols: []int{2}}
	return m
}

func usersCols() []optimizer.OutCol {
	return []optimizer.OutCol{
		{Table: "u", Name: "id", Type: sqltypes.Int},
		{Table: "u", Name: "name", Type: sqltypes.Text},
		{Table: "u", Name: "dept", Type: sqltypes.Int},
	}
}

func deptsCols() []optimizer.OutCol {
	return []optimizer.OutCol{
		{Table: "d", Name: "dept", Type: sqltypes.Int},
		{Table: "d", Name: "title", Type: sqltypes.Text},
	}
}

func whereOf(t *testing.T, cond string) sqlparser.Expr {
	t.Helper()
	st, err := sqlparser.Parse("SELECT * FROM x WHERE " + cond)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*sqlparser.SelectStmt).Where
}

func runPlan(t *testing.T, root optimizer.Node, params []sqltypes.Value) []sqltypes.Row {
	t.Helper()
	prep, err := Compile(&optimizer.Plan{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{Params: params}
	it, err := prep.Run(newMemStorage(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Tuples == 0 && len(rows) > 0 {
		t.Error("actual-CPU counter not advanced")
	}
	return rows
}

func TestSeqScanWithFilter(t *testing.T) {
	scan := &optimizer.SeqScan{
		Table: "users", Alias: "u", Cols: usersCols(),
		Filter: whereOf(t, "dept = 3"),
	}
	rows := runPlan(t, scan, nil)
	if len(rows) != 20 {
		t.Fatalf("rows = %d, want 20", len(rows))
	}
	for _, r := range rows {
		if r[2].I != 3 {
			t.Errorf("filter leak: %v", r)
		}
	}
}

func TestIndexScanEqAndRange(t *testing.T) {
	eq := &optimizer.IndexScan{
		Table: "users", Alias: "u", Index: "ix_dept", Cols: usersCols(),
		Eq: []sqlparser.Expr{sqlparser.Literal{Val: sqltypes.NewInt(2)}},
	}
	rows := runPlan(t, eq, nil)
	if len(rows) != 20 {
		t.Fatalf("eq probe rows = %d", len(rows))
	}

	// Range on the primary: 10 <= id <= 19.
	rng := &optimizer.IndexScan{
		Table: "users", Alias: "u", Primary: true, Cols: usersCols(),
		Lo: sqlparser.Literal{Val: sqltypes.NewInt(10)}, LoIncl: true,
		Hi: sqlparser.Literal{Val: sqltypes.NewInt(19)}, HiIncl: true,
	}
	rows = runPlan(t, rng, nil)
	if len(rows) != 10 {
		t.Fatalf("range rows = %d, want 10", len(rows))
	}

	// Exclusive bounds.
	rng.LoIncl, rng.HiIncl = false, false
	rows = runPlan(t, rng, nil)
	if len(rows) != 8 {
		t.Fatalf("exclusive range rows = %d, want 8", len(rows))
	}

	// NULL probe matches nothing.
	eq.Eq = []sqlparser.Expr{sqlparser.Literal{Val: sqltypes.NullValue()}}
	rows = runPlan(t, eq, nil)
	if len(rows) != 0 {
		t.Fatalf("NULL probe rows = %d", len(rows))
	}
}

func joinTree(t *testing.T) (*optimizer.SeqScan, *optimizer.SeqScan) {
	left := &optimizer.SeqScan{Table: "users", Alias: "u", Cols: usersCols()}
	right := &optimizer.SeqScan{Table: "depts", Alias: "d", Cols: deptsCols()}
	return left, right
}

func TestHashJoin(t *testing.T) {
	left, right := joinTree(t)
	j := &optimizer.HashJoin{
		Left: left, Right: right,
		LeftKeys:  []sqlparser.Expr{sqlparser.ColumnRef{Table: "u", Name: "dept"}},
		RightKeys: []sqlparser.Expr{sqlparser.ColumnRef{Table: "d", Name: "dept"}},
	}
	rows := runPlan(t, j, nil)
	if len(rows) != 100 {
		t.Fatalf("join rows = %d, want 100", len(rows))
	}
	if len(rows[0]) != 5 {
		t.Fatalf("combined width = %d", len(rows[0]))
	}
	// Residual condition filters pairs.
	j.Residual = whereOf(t, "u.id < 10")
	rows = runPlan(t, j, nil)
	if len(rows) != 10 {
		t.Fatalf("residual rows = %d", len(rows))
	}
}

func TestLoopJoinCross(t *testing.T) {
	left, right := joinTree(t)
	j := &optimizer.LoopJoin{Left: left, Right: right}
	rows := runPlan(t, j, nil)
	if len(rows) != 500 {
		t.Fatalf("cross rows = %d", len(rows))
	}
	j.Cond = whereOf(t, "u.dept = d.dept")
	rows = runPlan(t, j, nil)
	if len(rows) != 100 {
		t.Fatalf("theta rows = %d", len(rows))
	}
}

func TestIndexJoin(t *testing.T) {
	right := &optimizer.SeqScan{Table: "depts", Alias: "d", Cols: deptsCols()}
	j := &optimizer.IndexJoin{
		Left: right, Table: "users", Alias: "u", Index: "ix_dept", Cols: usersCols(),
		LeftKeys: []sqlparser.Expr{sqlparser.ColumnRef{Table: "d", Name: "dept"}},
	}
	rows := runPlan(t, j, nil)
	if len(rows) != 100 {
		t.Fatalf("index join rows = %d", len(rows))
	}
	if len(rows[0]) != 5 {
		t.Fatalf("width = %d", len(rows[0]))
	}
}

func TestAggregationOperators(t *testing.T) {
	scan := &optimizer.SeqScan{Table: "users", Alias: "u", Cols: usersCols()}
	agg := &optimizer.Agg{
		Input:   scan,
		GroupBy: []sqlparser.Expr{sqlparser.ColumnRef{Table: "u", Name: "dept"}},
		Aggs: []optimizer.AggSpec{
			{Func: "COUNT", Star: true},
			{Func: "SUM", Arg: sqlparser.ColumnRef{Table: "u", Name: "id"}},
			{Func: "MIN", Arg: sqlparser.ColumnRef{Table: "u", Name: "name"}},
			{Func: "MAX", Arg: sqlparser.ColumnRef{Table: "u", Name: "id"}},
			{Func: "AVG", Arg: sqlparser.ColumnRef{Table: "u", Name: "id"}},
		},
	}
	setAggOut(agg)
	rows := runPlan(t, agg, nil)
	if len(rows) != 5 {
		t.Fatalf("groups = %d", len(rows))
	}
	var totalCount int64
	for _, r := range rows {
		// Layout: [dept, COUNT, SUM, MIN(name), MAX(id), AVG(id)].
		totalCount += r[1].I
		if !strings.HasPrefix(r[3].S, "user") {
			t.Errorf("MIN name = %v", r[3])
		}
		if r[4].I < 95 {
			t.Errorf("MAX id = %v", r[4])
		}
		if r[5].T != sqltypes.Float {
			t.Errorf("AVG type = %v", r[5].T)
		}
	}
	if totalCount != 100 {
		t.Errorf("counts sum to %d", totalCount)
	}
}

// setAggOut fills the unexported output columns via the public helper
// path: Agg computes Out() from outCols, which PlanSelect normally
// populates. For direct tests we rebuild the same layout.
func setAggOut(a *optimizer.Agg) {
	cols := []optimizer.OutCol{{Table: "#", Name: "g0", Type: sqltypes.Int}}
	for j := range a.Aggs {
		cols = append(cols, optimizer.OutCol{Table: "#", Name: fmt.Sprintf("a%d", j)})
	}
	a.SetOutCols(cols)
}

func TestSortDistinctLimitStrip(t *testing.T) {
	scan := &optimizer.SeqScan{Table: "users", Alias: "u", Cols: usersCols()}
	proj := &optimizer.Project{
		Input: scan,
		Exprs: []sqlparser.Expr{
			sqlparser.ColumnRef{Table: "u", Name: "dept"},
			sqlparser.ColumnRef{Table: "u", Name: "id"},
		},
		Names: []optimizer.OutCol{
			{Name: "dept", Type: sqltypes.Int},
			{Name: "id", Type: sqltypes.Int},
		},
	}
	dist := &optimizer.Distinct{Input: &optimizer.Project{
		Input: scan,
		Exprs: []sqlparser.Expr{sqlparser.ColumnRef{Table: "u", Name: "dept"}},
		Names: []optimizer.OutCol{{Name: "dept", Type: sqltypes.Int}},
	}}
	rows := runPlan(t, dist, nil)
	if len(rows) != 5 {
		t.Fatalf("distinct rows = %d", len(rows))
	}

	sorted := &optimizer.Sort{Input: proj, Keys: []optimizer.SortKey{{Col: 0, Desc: true}, {Col: 1}}}
	rows = runPlan(t, sorted, nil)
	if rows[0][0].I != 4 || rows[0][1].I != 4 {
		t.Errorf("sort head = %v", rows[0])
	}

	limited := &optimizer.Limit{Input: sorted, N: 3, Offset: 2}
	rows = runPlan(t, limited, nil)
	if len(rows) != 3 || rows[0][1].I != 14 {
		t.Errorf("limit rows = %v", rows)
	}

	stripped := &optimizer.Strip{Input: sorted, Keep: 1}
	rows = runPlan(t, stripped, nil)
	if len(rows[0]) != 1 {
		t.Errorf("strip width = %d", len(rows[0]))
	}
}

func TestParamsInProbe(t *testing.T) {
	eq := &optimizer.IndexScan{
		Table: "users", Alias: "u", Primary: true, Cols: usersCols(),
		Eq: []sqlparser.Expr{sqlparser.Param{Idx: 0}},
	}
	rows := runPlan(t, eq, []sqltypes.Value{sqltypes.NewInt(42)})
	if len(rows) != 1 || rows[0][0].I != 42 {
		t.Fatalf("param probe rows = %v", rows)
	}
}

func TestCompileErrors(t *testing.T) {
	// A filter referencing an unknown column must fail at compile time.
	scan := &optimizer.SeqScan{
		Table: "users", Alias: "u", Cols: usersCols(),
		Filter: whereOf(t, "bogus = 1"),
	}
	if _, err := Compile(&optimizer.Plan{Root: scan}); err == nil {
		t.Fatal("unknown column compiled")
	}
}

func TestStorageErrorsPropagate(t *testing.T) {
	scan := &optimizer.SeqScan{Table: "missing", Alias: "m", Cols: usersCols()}
	prep, err := Compile(&optimizer.Plan{Root: scan})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Run(newMemStorage(), &Ctx{}); err == nil {
		t.Fatal("missing table did not error")
	}
}

// drainBatches runs a plan and returns the size of every batch it
// delivers, plus the tuple counter.
func drainBatches(t *testing.T, st Storage, root optimizer.Node, ctx *Ctx) []int {
	t.Helper()
	prep, err := Compile(&optimizer.Plan{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	it, err := prep.Run(st, ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var sizes []int
	var b Batch
	for {
		ok, err := it.NextBatch(&b)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return sizes
		}
		sizes = append(sizes, len(b.Rows))
	}
}

// TestJoinBatchesStayBounded: under fan-out every join method resumes
// in the middle of its outer batch, so no output batch exceeds
// BatchSize, no row is lost or repeated, and each outer row and each
// match counts one tuple.
func TestJoinBatchesStayBounded(t *testing.T) {
	users := func(alias string) *optimizer.SeqScan {
		cols := usersCols()
		for i := range cols {
			cols[i].Table = alias
		}
		return &optimizer.SeqScan{Table: "users", Alias: alias, Cols: cols}
	}
	dept := func(alias string) []sqlparser.Expr {
		return []sqlparser.Expr{sqlparser.ColumnRef{Table: alias, Name: "dept"}}
	}
	cases := []struct {
		name   string
		plan   optimizer.Node
		rows   int
		tuples int64 // beyond the scans' own counts
	}{
		// 100 users x 100 users.
		{"loop", &optimizer.LoopJoin{Left: users("a"), Right: users("b")}, 10000, 100 + 10000},
		// Each of 5 depts holds 20 users: 100 x 20 matches. The hash
		// build counts its 100 input rows too.
		{"hash", &optimizer.HashJoin{Left: users("a"), Right: users("b"),
			LeftKeys: dept("a"), RightKeys: dept("b")}, 2000, 100 + 100 + 2000},
		{"index", &optimizer.IndexJoin{Left: users("a"), Table: "users", Alias: "b",
			Index: "ix_dept", Cols: users("b").Cols, LeftKeys: dept("a")}, 2000, 100 + 2000},
	}
	for _, tc := range cases {
		ctx := &Ctx{}
		sizes := drainBatches(t, newMemStorage(), tc.plan, ctx)
		total := 0
		for _, n := range sizes {
			if n == 0 || n > BatchSize {
				t.Errorf("%s: batch of %d rows (max %d)", tc.name, n, BatchSize)
			}
			total += n
		}
		if total != tc.rows {
			t.Errorf("%s: %d rows, want %d", tc.name, total, tc.rows)
		}
		// Scans count every row they yield: the outer scan 100, a
		// materialized inner scan 100 more (the index join has none).
		scans := int64(200)
		if tc.name == "index" {
			scans = 100
		}
		if want := tc.tuples + scans; ctx.Tuples != want {
			t.Errorf("%s: tuples = %d, want %d", tc.name, ctx.Tuples, want)
		}
	}
}

// closeCounter records Close calls on a batch iterator.
type closeCounter struct {
	RowBatchIter
	closes *int
}

func (c closeCounter) Close() error {
	*c.closes++
	return c.RowBatchIter.Close()
}

type closeCountingStorage struct {
	*memStorage
	closes int
}

func (s *closeCountingStorage) ScanTable(name string) (RowBatchIter, error) {
	it, err := s.memStorage.ScanTable(name)
	if err != nil {
		return nil, err
	}
	return closeCounter{RowBatchIter: it, closes: &s.closes}, nil
}

// TestLimitStopsPulling: once LIMIT has its rows it closes its input
// without draining it, and the trace reports the work actually done —
// the one batch the scan produced, without a final exhaustion call.
func TestLimitStopsPulling(t *testing.T) {
	st := &closeCountingStorage{memStorage: newMemStorage()}
	big := make([]sqltypes.Row, 3*BatchSize)
	for i := range big {
		big[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewText("x"), sqltypes.NewInt(0)}
	}
	st.tables["big"] = big
	scan := &optimizer.SeqScan{Table: "big", Alias: "u", Cols: usersCols()}
	for _, tc := range []struct{ n, offset int64 }{{5, 0}, {5, BatchSize - 2}, {0, 0}} {
		st.closes = 0
		prep, err := Compile(&optimizer.Plan{Root: &optimizer.Limit{Input: scan, N: tc.n, Offset: tc.offset}})
		if err != nil {
			t.Fatal(err)
		}
		tr := prep.NewTrace()
		ctx := &Ctx{Trace: tr}
		it, err := prep.Run(st, ctx)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Collect(it)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(rows)) != tc.n {
			t.Fatalf("LIMIT %d OFFSET %d: %d rows", tc.n, tc.offset, len(rows))
		}
		for i, r := range rows {
			if r[0].I != tc.offset+int64(i) {
				t.Fatalf("LIMIT %d OFFSET %d: row %d = %v", tc.n, tc.offset, i, r)
			}
		}
		if st.closes != 1 {
			t.Errorf("LIMIT %d OFFSET %d: scan closed %d times, want 1", tc.n, tc.offset, st.closes)
		}
		// The scan produced whole batches up to the one that completed
		// the limit, and was never asked past them.
		batches := (tc.offset + tc.n + BatchSize - 1) / BatchSize
		if tc.n == 0 {
			batches = 0
		}
		scanned := tr.Counts[1]
		if scanned.Rows != batches*BatchSize || scanned.Calls != scanned.Rows {
			t.Errorf("LIMIT %d OFFSET %d: scan actuals rows=%d calls=%d, want %d rows and as many calls",
				tc.n, tc.offset, scanned.Rows, scanned.Calls, batches*BatchSize)
		}
		if ctx.Tuples != scanned.Rows {
			t.Errorf("LIMIT %d OFFSET %d: tuples = %d, want the %d rows scanned", tc.n, tc.offset, ctx.Tuples, scanned.Rows)
		}
		if lim := tr.Counts[0]; lim.Rows != tc.n || lim.Calls != tc.n+1 {
			t.Errorf("LIMIT %d OFFSET %d: limit actuals rows=%d calls=%d", tc.n, tc.offset, lim.Rows, lim.Calls)
		}
	}
}
