package core

import (
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ima"
	"repro/internal/workloaddb"
)

// series is one unlabelled /metrics sample with its announcement.
type series struct {
	help, kind string
	value      float64
}

// scrapeMetrics reads the system's /metrics exposition over HTTP and
// returns its unlabelled series by name.
func scrapeMetrics(t *testing.T, sys *System) map[string]series {
	t.Helper()
	rec := httptest.NewRecorder()
	sys.Telemetry.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body, _ := io.ReadAll(rec.Body)
	out := map[string]series{}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 4 && f[0] == "#" && f[1] == "HELP":
			s := out[f[2]]
			s.help = strings.Join(f[3:], " ")
			out[f[2]] = s
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
			s := out[f[2]]
			s.kind = f[3]
			out[f[2]] = s
		case len(f) == 2 && !strings.Contains(f[0], "{"):
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			s := out[f[0]]
			s.value = v
			out[f[0]] = s
		}
	}
	return out
}

// wsTableOf returns the workload table that copies an IMA table.
func wsTableOf(t *testing.T, imaTable string) workloaddb.Table {
	t.Helper()
	for _, w := range workloaddb.AllTables {
		if w.IMA == imaTable {
			return w
		}
	}
	t.Fatalf("no workload table copies %s", imaTable)
	return workloaddb.Table{}
}

// latestWsRow returns the newest row of a workload table by column.
func latestWsRow(t *testing.T, sys *System, table string) map[string]int64 {
	t.Helper()
	ws := sys.WorkloadDB.NewSession()
	defer ws.Close()
	res, err := ws.Exec("SELECT * FROM " + table + " ORDER BY ts_us DESC LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("%s has no row after a poll", table)
	}
	row := map[string]int64{}
	for i, c := range res.Columns {
		row[strings.ToLower(c)] = res.Rows[0][i].I
	}
	return row
}

// checkCounterParity asserts that every registered counter appears in
// its ima_* table, in the ws_* row of the latest poll and on /metrics,
// with one value and the declared help and kind. The system must be
// quiescent since that poll.
func checkCounterParity(t *testing.T, sys *System) {
	t.Helper()
	metrics := scrapeMetrics(t, sys)
	imaRows := map[string]map[string]int64{}
	wsRows := map[string]map[string]int64{}
	for _, c := range ima.Counters {
		if imaRows[c.Table] == nil {
			schema, rows, ok := sys.DB.ReadVirtual(c.Table)
			if !ok || len(rows) != 1 {
				t.Fatalf("%s: registered %v, %d rows; want one row", c.Table, ok, len(rows))
			}
			imaRows[c.Table] = map[string]int64{}
			for i, col := range schema.Columns {
				imaRows[c.Table][col.Name] = rows[0][i].I
			}
			wsRows[c.Table] = latestWsRow(t, sys, wsTableOf(t, c.Table).Name)
		}
		iv, ok := imaRows[c.Table][c.Column]
		if !ok {
			t.Errorf("%s: no column %s", c.Table, c.Column)
			continue
		}
		if wv, ok := wsRows[c.Table][c.Column]; !ok || wv != iv {
			t.Errorf("%s.%s = %d, ws copy = %d (present %v)", c.Table, c.Column, iv, wv, ok)
		}
		m, ok := metrics[c.Metric]
		if !ok {
			t.Errorf("%s: no /metrics series %s", c.Column, c.Metric)
			continue
		}
		wantKind := "counter"
		if c.Kind == ima.Gauge {
			wantKind = "gauge"
		}
		if m.help != c.Help || m.kind != wantKind {
			t.Errorf("%s: help %q kind %s, declared %q %s", c.Metric, m.help, m.kind, c.Help, wantKind)
		}
		scale := c.Scale
		if scale == 0 {
			scale = 1
		}
		if m.value != float64(iv)*scale {
			t.Errorf("%s = %v, %s.%s = %d", c.Metric, m.value, c.Table, c.Column, iv)
		}
	}
}

// TestCounterRegistryParity is the structural check behind "declare
// each counter once": a counter added to the registry — here by the
// test itself — shows up in IMA, in the ws_* copy and on /metrics with
// no other edit, and every ws_* table is ts_us followed by the columns
// of its IMA table (or their declared projection).
func TestCounterRegistryParity(t *testing.T) {
	saved := ima.Counters
	ima.Counters = append(append([]ima.Counter(nil), saved...),
		ima.Counter{Table: ima.Statistics, Column: "probe", Metric: "engine_probe_total",
			Help: "A counter declared by the test.", Kind: ima.Cumulative, Scale: 0.5,
			Get: func(s *ima.Sample) int64 { return 2 * s.Stats.Statements }},
		ima.Counter{Table: ima.Mvcc, Column: "probe_gauge", Metric: "engine_mvcc_probe",
			Help: "A gauge declared by the test.", Kind: ima.Gauge,
			Get: func(s *ima.Sample) int64 { return s.Mvcc.TxnBegins + 7 }})
	defer func() { ima.Counters = saved }()

	sys, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	s := sys.Session()
	for _, q := range []string{
		"CREATE TABLE rp (id INTEGER PRIMARY KEY, v INTEGER)",
		"INSERT INTO rp VALUES (1, 10), (2, 20)",
		"UPDATE rp SET v = 11 WHERE id = 1",
		"SELECT v FROM rp WHERE id = 2",
	} {
		if _, err := s.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if err := sys.Poll(); err != nil {
		t.Fatal(err)
	}
	checkCounterParity(t, sys)
	if got := latestWsRow(t, sys, workloaddb.Statistics)["probe"]; got == 0 {
		t.Error("the test's counter was persisted as 0")
	}

	// Every ws table is ts_us + its IMA table's columns (or projection).
	for _, w := range workloaddb.AllTables {
		schema, ok := ima.Schema(w.IMA)
		if !ok {
			t.Errorf("%s: no IMA table %s", w.Name, w.IMA)
			continue
		}
		if _, _, registered := sys.DB.ReadVirtual(w.IMA); !registered {
			t.Errorf("%s is not registered on the monitored database", w.IMA)
		}
		want := append([]string{"ts_us"}, schema.Names()...)
		if w.Columns != nil {
			want = append([]string{"ts_us"}, w.Columns...)
		}
		var got []string
		for _, c := range sys.WorkloadDB.Catalog().Table(w.Name).Schema.Columns {
			got = append(got, c.Name)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s columns %v, want %v", w.Name, got, want)
		}
	}

	// The daemon's activity series sit beside the registry's.
	metrics := scrapeMetrics(t, sys)
	if metrics["daemon_polls_total"].value != 1 {
		t.Errorf("daemon_polls_total = %v, want 1", metrics["daemon_polls_total"].value)
	}
	if metrics["daemon_last_poll_timestamp_seconds"].value <= 0 {
		t.Error("daemon_last_poll_timestamp_seconds missing or zero")
	}
}
