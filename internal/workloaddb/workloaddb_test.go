package workloaddb

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sqltypes"
)

func openDB(t *testing.T) *engine.DB {
	t.Helper()
	db, err := engine.Open(engine.Config{Dir: t.TempDir(), PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestEnsureSchemaIdempotent(t *testing.T) {
	db := openDB(t)
	if err := EnsureSchema(db); err != nil {
		t.Fatal(err)
	}
	if err := EnsureSchema(db); err != nil {
		t.Fatalf("second EnsureSchema: %v", err)
	}
	s := db.NewSession()
	defer s.Close()
	for _, tbl := range AllTables {
		if _, err := s.Exec("SELECT COUNT(*) FROM " + tbl.Name); err != nil {
			t.Errorf("table %s: %v", tbl.Name, err)
		}
	}
}

func TestPrune(t *testing.T) {
	db := openDB(t)
	if err := EnsureSchema(db); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	now := time.Now()
	old := now.Add(-48 * time.Hour).UnixMicro()
	fresh := now.Add(-time.Hour).UnixMicro()
	for _, ts := range []int64{old, fresh} {
		if _, err := s.Exec(fmt.Sprintf(
			"INSERT INTO %s VALUES (%d, 1, 1, 1, 1, 1, 1, 1.0, 1.0, 1.0, 1, 1, 0)",
			Workload, ts)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	removed, err := Prune(db, 24*time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Errorf("removed = %d, want 1", removed)
	}
	s2 := db.NewSession()
	defer s2.Close()
	res, _ := s2.Exec("SELECT COUNT(*) FROM " + Workload)
	if res.Rows[0][0].I != 1 {
		t.Errorf("surviving rows = %v", res.Rows[0][0])
	}
}

func TestGrowthModelMath(t *testing.T) {
	g := GrowthModel{StatementsPerSecond: 10, BytesPerWorkloadRow: 100, Retention: 10 * time.Hour}
	if got := g.BytesPerHour(); got != 10*100*3600 {
		t.Errorf("BytesPerHour = %v", got)
	}
	if got := g.CapBytes(); got != 10*100*3600*10 {
		t.Errorf("CapBytes = %v", got)
	}
}

func TestStatementTextMaxMatchesEngine(t *testing.T) {
	// The daemon's truncation bound, the ws_statements VARCHAR width
	// and the engine's hard row limit must agree, or appends of
	// near-limit statement text fail at insert time.
	if StatementTextMax != engine.MaxTextBytes {
		t.Errorf("StatementTextMax = %d, engine.MaxTextBytes = %d", StatementTextMax, engine.MaxTextBytes)
	}
}

// wsGolden pins the column list of every workload table, copied
// verbatim from the hand-written DDL the generated schema replaced.
// Readers of older workload databases and the analyzer's positional
// fixtures depend on these names and this order; a change to an IMA
// table that would reorder or drop a ws_* column fails here.
var wsGolden = map[string]string{
	Statements: `ts_us BIGINT, hash BIGINT, query_text VARCHAR(512), kind VARCHAR(32),
		frequency BIGINT, first_seen_us BIGINT, last_seen_us BIGINT`,
	Workload: `ts_us BIGINT, hash BIGINT, start_us BIGINT, wall_us BIGINT, opt_us BIGINT,
		exec_cpu BIGINT, exec_io BIGINT, est_cpu FLOAT, est_io FLOAT, est_rows FLOAT,
		rows BIGINT, mon_ns BIGINT, error BIGINT`,
	References: `ts_us BIGINT, hash BIGINT, obj_type VARCHAR(16), obj_name VARCHAR(128),
		table_name VARCHAR(64)`,
	Tables: `ts_us BIGINT, table_name VARCHAR(64), frequency BIGINT, structure VARCHAR(16),
		data_pages BIGINT, overflow_pages BIGINT, row_count BIGINT`,
	Attributes: `ts_us BIGINT, attr_name VARCHAR(128), table_name VARCHAR(64),
		frequency BIGINT, has_histogram BIGINT`,
	Indexes: `ts_us BIGINT, index_name VARCHAR(64), table_name VARCHAR(64),
		frequency BIGINT, is_virtual BIGINT`,
	Statistics: `ts_us BIGINT, current_sessions BIGINT, peak_sessions BIGINT, statements BIGINT,
		locks_held BIGINT, lock_waits BIGINT, deadlocks BIGINT, cache_hits BIGINT,
		cache_misses BIGINT, disk_reads BIGINT, disk_writes BIGINT, db_bytes BIGINT,
		poll_errors BIGINT, retries BIGINT, carryover_depth BIGINT, alert_errors BIGINT,
		cache_evictions BIGINT, cache_resident BIGINT, pin_waits BIGINT,
		wal_bytes BIGINT, wal_fsyncs BIGINT, redo_records BIGINT, redo_nanos BIGINT,
		apply_failures BIGINT,
		parallel_queries BIGINT, morsels_dispatched BIGINT, parallel_worker_nanos BIGINT`,
	Latency: `ts_us BIGINT, scope VARCHAR(8), bucket BIGINT, lo_ns BIGINT, hi_ns BIGINT,
		bucket_count BIGINT`,
	Actions: `ts_us BIGINT, seq BIGINT, action_id BIGINT, kind VARCHAR(32),
		target VARCHAR(64), sql_text VARCHAR(512), state VARCHAR(16),
		baseline_us BIGINT, observed_us BIGINT, delta_pct FLOAT,
		samples BIGINT, at_us BIGINT, detail VARCHAR(512)`,
	Waits: `ts_us BIGINT, hash BIGINT, query_text VARCHAR(512), reason VARCHAR(16),
		samples BIGINT, wall_ns BIGINT, exec_ns BIGINT, lock_ns BIGINT,
		io_ns BIGINT, fsync_ns BIGINT, pinwait_ns BIGINT`,
	Mvcc: `ts_us BIGINT, txn_begins BIGINT, txn_commits BIGINT, txn_aborts BIGINT,
		write_conflicts BIGINT, inflight_txns BIGINT, active_snapshots BIGINT,
		aborted_ids BIGINT, oldest_snapshot_ns BIGINT, vacuum_runs BIGINT,
		vacuum_reclaimed BIGINT, vacuum_cleared BIGINT, retired_ids BIGINT,
		chain_len_p95 BIGINT`,
}

func TestWsSchemaGolden(t *testing.T) {
	db := openDB(t)
	if err := EnsureSchema(db); err != nil {
		t.Fatal(err)
	}
	if len(AllTables) != len(wsGolden) {
		t.Errorf("%d workload tables, %d golden column lists", len(AllTables), len(wsGolden))
	}
	types := map[string]sqltypes.Type{"BIGINT": sqltypes.Int, "FLOAT": sqltypes.Float, "VARCHAR": sqltypes.Text}
	for _, tbl := range AllTables {
		golden, ok := wsGolden[tbl.Name]
		if !ok {
			t.Errorf("%s has no golden column list", tbl.Name)
			continue
		}
		var want []string
		for _, def := range strings.Split(golden, ",") {
			f := strings.Fields(def)
			typ, _, _ := strings.Cut(f[1], "(")
			want = append(want, f[0]+" "+types[typ].String())
		}
		var got []string
		for _, c := range db.Catalog().Table(tbl.Name).Schema.Columns {
			got = append(got, c.Name+" "+c.Type.String())
		}
		if strings.Join(got, ", ") != strings.Join(want, ", ") {
			t.Errorf("%s columns changed:\n got: %s\nwant: %s", tbl.Name, strings.Join(got, ", "), strings.Join(want, ", "))
		}
	}
}
