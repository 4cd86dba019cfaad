package ima

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/monitor"
)

func newMonitoredDB(t *testing.T) (*engine.DB, *monitor.Monitor, *engine.Session) {
	t.Helper()
	mon := monitor.New(monitor.Config{})
	db, err := engine.Open(engine.Config{Dir: t.TempDir(), PoolPages: 256, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if err := Register(db, mon); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s := db.NewSession()
	t.Cleanup(s.Close)
	return db, mon, s
}

func exec(t *testing.T, s *engine.Session, sql string) *engine.Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

// seedRows is large enough that primary-key lookups use the pk index.
const seedRows = 2000

func seed(t *testing.T, s *engine.Session) {
	exec(t, s, "CREATE TABLE items (id INTEGER PRIMARY KEY, v VARCHAR(16))")
	for base := 0; base < seedRows; base += 200 {
		stmt := "INSERT INTO items VALUES "
		for i := base; i < base+200; i++ {
			if i > base {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, 'v%d')", i, i)
		}
		exec(t, s, stmt)
	}
	exec(t, s, "SELECT v FROM items WHERE id = 3")
	exec(t, s, "SELECT v FROM items WHERE id = 3")
	exec(t, s, "SELECT COUNT(*) FROM items")
}

func TestRegisterRequiresMonitor(t *testing.T) {
	db, err := engine.Open(engine.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := Register(db, nil); err == nil {
		t.Fatal("Register accepted a nil monitor")
	}
}

func TestStatementsTableOverSQL(t *testing.T) {
	_, _, s := newMonitoredDB(t)
	seed(t, s)
	res := exec(t, s, "SELECT query_text, frequency FROM ima_statements WHERE frequency >= 2")
	found := false
	for _, r := range res.Rows {
		if r[0].S == "SELECT v FROM items WHERE id = 3" && r[1].I == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("repeated statement not visible over SQL: %v", res.Rows)
	}
}

func TestWorkloadTableCostColumns(t *testing.T) {
	_, _, s := newMonitoredDB(t)
	seed(t, s)
	res := exec(t, s, "SELECT wall_us, exec_cpu, est_cpu FROM ima_workload WHERE rows > 0")
	if len(res.Rows) == 0 {
		t.Fatal("no workload rows")
	}
	for _, r := range res.Rows {
		if r[0].I < 0 || r[1].I <= 0 {
			t.Errorf("suspicious workload row: %v", r)
		}
	}
}

func TestReferencesJoinStatements(t *testing.T) {
	_, _, s := newMonitoredDB(t)
	seed(t, s)
	// The IMA tables are plain relations: join them with SQL, exactly
	// as the paper's schema (Figure 3) intends.
	res := exec(t, s, `SELECT r.obj_name FROM ima_references r
		JOIN ima_statements st ON r.hash = st.hash
		WHERE r.obj_type = 'table' AND st.frequency >= 2`)
	found := false
	for _, r := range res.Rows {
		if r[0].S == "items" {
			found = true
		}
	}
	if !found {
		t.Errorf("reference join failed: %v", res.Rows)
	}
}

func TestTablesAndAttributesTables(t *testing.T) {
	_, _, s := newMonitoredDB(t)
	seed(t, s)
	res := exec(t, s, "SELECT table_name, frequency, structure, row_count FROM ima_tables WHERE table_name = 'items'")
	if len(res.Rows) != 1 {
		t.Fatalf("ima_tables: %v", res.Rows)
	}
	if res.Rows[0][1].I == 0 || res.Rows[0][2].S != "HEAP" || res.Rows[0][3].I != seedRows {
		t.Errorf("ima_tables row: %v", res.Rows[0])
	}

	res = exec(t, s, "SELECT attr_name, frequency FROM ima_attributes WHERE attr_name = 'items.id'")
	if len(res.Rows) != 1 || res.Rows[0][1].I == 0 {
		t.Errorf("ima_attributes: %v", res.Rows)
	}
}

func TestIndexesTableShowsPKUse(t *testing.T) {
	_, _, s := newMonitoredDB(t)
	seed(t, s)
	res := exec(t, s, "SELECT index_name, frequency FROM ima_indexes WHERE frequency > 0")
	if len(res.Rows) == 0 {
		t.Fatalf("no used indexes visible: %v", res.Rows)
	}
	found := false
	for _, r := range res.Rows {
		if r[0].S == "pk_items" {
			found = true
		}
	}
	if !found {
		t.Errorf("pk index usage missing: %v", res.Rows)
	}
}

func TestStatisticsTable(t *testing.T) {
	_, _, s := newMonitoredDB(t)
	seed(t, s)
	res := exec(t, s, "SELECT current_sessions, statements, db_bytes FROM ima_statistics")
	if len(res.Rows) != 1 {
		t.Fatalf("ima_statistics rows: %d", len(res.Rows))
	}
	r := res.Rows[0]
	if r[0].I < 1 || r[1].I == 0 || r[2].I == 0 {
		t.Errorf("statistics row: %v", r)
	}
}

func TestDoubleRegisterFails(t *testing.T) {
	db, mon, _ := newMonitoredDB(t)
	if err := Register(db, mon); err == nil {
		t.Fatal("double Register succeeded")
	}
}

// TestIndexesTableOrderIsStable: the "<table>.primary" rows come from a
// map, so ima_indexes sorts its rows; repeated reads (and the ws_indexes
// copies persisted from them) list the indexes in one order.
func TestIndexesTableOrderIsStable(t *testing.T) {
	db, _, s := newMonitoredDB(t)
	for i := 0; i < 4; i++ {
		exec(t, s, fmt.Sprintf("CREATE TABLE bt%d (id INTEGER, v INTEGER)", i))
		for k := 0; k < seedRows; k += 500 {
			vals := make([]string, 500)
			for j := range vals {
				vals[j] = fmt.Sprintf("(%d, %d)", k+j, k+j)
			}
			exec(t, s, fmt.Sprintf("INSERT INTO bt%d VALUES %s", i, strings.Join(vals, ", ")))
		}
		exec(t, s, fmt.Sprintf("MODIFY bt%d TO BTREE ON id", i))
		exec(t, s, fmt.Sprintf("CREATE INDEX ix_bt%d ON bt%d (v)", i, i))
		exec(t, s, fmt.Sprintf("SELECT v FROM bt%d WHERE id = 2", i))
	}
	read := func() []string {
		_, rows, _ := db.ReadVirtual("ima_indexes")
		names := make([]string, len(rows))
		for i, r := range rows {
			names[i] = r[0].S
		}
		return names
	}
	first := read()
	primaries := 0
	for _, n := range first {
		if strings.HasSuffix(n, ".primary") {
			primaries++
		}
	}
	if primaries < 2 {
		t.Fatalf("want several <table>.primary rows to order, got %v", first)
	}
	if !sort.StringsAreSorted(first) {
		t.Errorf("ima_indexes not sorted by index name: %v", first)
	}
	for i := 0; i < 10; i++ {
		if again := read(); strings.Join(again, ",") != strings.Join(first, ",") {
			t.Fatalf("read %d: order changed:\n%v\n%v", i, first, again)
		}
	}
}
