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

func (m *memStorage) ScanTable(name string) (RowIter, error) {
	rows, ok := m.tables[name]
	if !ok {
		return nil, fmt.Errorf("mem: no table %q", name)
	}
	return &SliceRowIter{Rows: rows}, nil
}

// memCursor is memStorage's IndexCursor: each Range re-filters the
// table through the index key.
type memCursor struct {
	m   *memStorage
	idx memIndex
	SliceRowIter
}

func (c *memCursor) Range(lo, hi []byte) {
	c.Rows, c.pos = nil, 0
	for _, row := range c.m.tables[c.idx.table] {
		var key []byte
		for _, col := range c.idx.cols {
			key = sqltypes.EncodeKey(key, row[col])
		}
		if bytes.Compare(key, lo) >= 0 && bytes.Compare(key, hi) < 0 {
			c.Rows = append(c.Rows, row)
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
