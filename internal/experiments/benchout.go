package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// The bench trajectory: a small fixed set of engine benchmarks run
// in-process (via testing.Benchmark) and emitted as machine-readable
// JSON, so CI can archive one file per commit and performance can be
// compared across the PR sequence instead of eyeballed from logs.

// BenchResult is one benchmark measurement.
type BenchResult struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// BenchReport is the machine-readable trajectory file: enough host
// context to interpret the numbers, plus one entry per benchmark.
type BenchReport struct {
	GeneratedAt string        `json:"generated_at"`
	GitRev      string        `json:"git_rev"`
	GoVersion   string        `json:"go_version"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Results     []BenchResult `json:"results"`
}

// WriteFile writes the report as indented JSON.
func (r *BenchReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// String renders the human-readable summary printed next to the file.
func (r *BenchReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bench trajectory @ %s (go %s, GOMAXPROCS=%d)\n",
		r.GitRev, r.GoVersion, r.GOMAXPROCS)
	for _, res := range r.Results {
		fmt.Fprintf(&b, "  %-28s %12.0f ns/op %10.1f ops/s %8d B/op %6d allocs/op\n",
			res.Name, res.NsPerOp, res.OpsPerSec, res.BytesPerOp, res.AllocsPerOp)
	}
	return b.String()
}

// gitRev returns the short commit hash, or "unknown" outside a
// checkout (benchrunner may run from an exported tree).
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// benchTrajectoryRows sizes the fixture so the heap spans several
// 64-page morsels and the parallel benchmarks actually fan out.
const benchTrajectoryRows = 20000

// RunBenchTrajectory builds the scan fixture once and measures the
// trajectory benchmarks: the morsel scaling curve (1, 4, 8 workers
// over one session), the scan-aggregate at the session default, the
// storage heap scan alone, the index probe layer (isolated point
// selects and index-join probes) and point selects under a concurrent
// updater (the MVCC fast path). Results carry the same semantics as `go test
// -bench`: NsPerOp is wall time per executed statement.
func RunBenchTrajectory(cfg Config) (*BenchReport, error) {
	cfg.fill()
	dir := filepath.Join(cfg.Dir, "benchout")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	db, err := engine.Open(engine.Config{Dir: filepath.Join(dir, "db"), PoolPages: 4096})
	if err != nil {
		return nil, err
	}
	defer db.Close()

	s := db.NewSession()
	_, err = s.Exec("CREATE TABLE scanrows (id INTEGER PRIMARY KEY, a INTEGER, f FLOAT, grp INTEGER, x INTEGER, y FLOAT)")
	s.Close()
	if err != nil {
		return nil, err
	}
	rows := make([]sqltypes.Row, benchTrajectoryRows)
	for i := range rows {
		rows[i] = sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewInt(int64(i * 7919 % 1000)),
			sqltypes.NewFloat(float64(i%977) * 1.5),
			sqltypes.NewInt(int64(i % 16)),
			sqltypes.NewInt(int64(i % 8191)),
			sqltypes.NewFloat(float64(i) * 0.25),
		}
	}
	if err := db.BulkInsert("scanrows", rows); err != nil {
		return nil, err
	}

	report := &BenchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GitRev:      gitRev(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}

	var benchErr error
	record := func(name string, f func(b *testing.B)) {
		if benchErr != nil {
			return
		}
		res := testing.Benchmark(f)
		if res.N == 0 {
			benchErr = fmt.Errorf("benchmark %s did not run", name)
			return
		}
		ns := float64(res.T.Nanoseconds()) / float64(res.N)
		report.Results = append(report.Results, BenchResult{
			Name:        name,
			Iters:       res.N,
			NsPerOp:     ns,
			OpsPerSec:   1e9 / ns,
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		})
	}

	for _, workers := range []int{1, 4, 8} {
		record(fmt.Sprintf("ScanAggMorsel%d", workers), BenchScanAgg(db, workers))
	}
	record("ScanAgg", BenchScanAgg(db, 0))
	heapFile, err := storage.OpenFile(filepath.Join(dir, "batchscan.dat"), storage.NewPool(4096))
	if err != nil {
		return nil, err
	}
	defer heapFile.Close()
	heap := storage.OpenHeap(heapFile, 1, 0)
	rec := make([]byte, 64)
	for i := 0; i < benchTrajectoryRows; i++ {
		if _, err := heap.Insert(rec); err != nil {
			return nil, err
		}
	}
	record("BatchScan", BenchBatchScan(heap, benchTrajectoryRows))
	record("PointSelect", BenchPointSelect(db))
	record("IndexJoinProbe", BenchIndexJoinProbe(db))

	record("PointSelectUnderUpdates", func(b *testing.B) {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			w := db.NewSession()
			defer w.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := w.Exec(fmt.Sprintf("UPDATE scanrows SET x = x + 1 WHERE id = %d", i%benchTrajectoryRows)); err != nil {
					return
				}
			}
		}()
		bs := db.NewSession()
		defer bs.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := bs.Exec(fmt.Sprintf("SELECT a, f FROM scanrows WHERE id = %d", i%benchTrajectoryRows))
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 1 {
				b.Fatalf("rows = %d", len(res.Rows))
			}
		}
		b.StopTimer()
		close(stop)
		<-done
	})

	if benchErr != nil {
		return nil, benchErr
	}
	return report, nil
}

// BenchScanAgg measures a scan+filter+aggregate statement over the
// scanrows fixture on one session: parallel workers, or the session
// default when parallel is 0. db must hold scanrows with
// benchTrajectoryRows rows.
func BenchScanAgg(db *engine.DB, parallel int) func(b *testing.B) {
	const q = "SELECT grp, COUNT(*), SUM(f) FROM scanrows WHERE a < 300 GROUP BY grp"
	return func(b *testing.B) {
		s := db.NewSession()
		defer s.Close()
		if parallel > 0 {
			s.SetParallel(parallel)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := s.Exec(q)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 16 {
				b.Fatalf("groups = %d", len(res.Rows))
			}
		}
	}
}

// BenchBatchScan measures the storage-layer heap scan in isolation:
// one Heap.ScanPage visit per page, each pinning and releasing one
// frame, over a heap holding rows records. One op is one full scan.
func BenchBatchScan(h *storage.Heap, rows int) func(b *testing.B) {
	return func(b *testing.B) {
		n := 0
		visit := func(storage.TID, []byte) error { n++; return nil }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n = 0
			for pg := uint32(0); pg < h.Pages(); pg++ {
				if err := h.ScanPage(pg, nil, visit); err != nil {
					b.Fatal(err)
				}
			}
			if n != rows {
				b.Fatalf("scanned %d rows, want %d", n, rows)
			}
		}
	}
}

// probeRows is the outer side of BenchIndexJoinProbe: every row of the
// probes table probes the scanrows primary-key index once.
const probeRows = 256

// BenchPointSelect measures an isolated primary-key point select on
// the scanrows fixture, with no concurrent writer: parse, plan-cache
// hit and one index probe. db must hold scanrows with at least
// benchTrajectoryRows rows.
func BenchPointSelect(db *engine.DB) func(b *testing.B) {
	return func(b *testing.B) {
		s := db.NewSession()
		defer s.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := s.Exec(fmt.Sprintf("SELECT a, f FROM scanrows WHERE id = %d", i*7919%benchTrajectoryRows))
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 1 {
				b.Fatalf("rows = %d", len(res.Rows))
			}
		}
	}
}

// BenchIndexJoinProbe measures index nested-loop join probes into the
// scanrows primary-key index. One op is one probe: each statement
// joins the probeRows rows of a probes table, which the first run adds
// next to scanrows, and the plan must be an index join.
func BenchIndexJoinProbe(db *engine.DB) func(b *testing.B) {
	// The equality on g keeps the outer estimate small, so the
	// optimizer probes the index instead of hashing scanrows.
	const q = "SELECT p.id, s.a FROM probes p, scanrows s WHERE p.k = s.id AND p.g = 0"
	return func(b *testing.B) {
		s := db.NewSession()
		defer s.Close()
		if db.Catalog().Table("probes") == nil {
			rows := make([]sqltypes.Row, probeRows)
			for i := range rows {
				rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(0),
					sqltypes.NewInt(int64(i * 7919 % benchTrajectoryRows))}
			}
			if _, err := s.Exec("CREATE TABLE probes (id INTEGER PRIMARY KEY, g INTEGER, k INTEGER)"); err != nil {
				b.Fatal(err)
			}
			if err := db.BulkInsert("probes", rows); err != nil {
				b.Fatal(err)
			}
		}
		plan, err := s.Exec("EXPLAIN " + q)
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(fmt.Sprint(plan.Rows), "IndexJoin scanrows") {
			b.Fatalf("not an index join: %v", plan.Rows)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += probeRows {
			res, err := s.Exec(q)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != probeRows {
				b.Fatalf("rows = %d", len(res.Rows))
			}
		}
	}
}
