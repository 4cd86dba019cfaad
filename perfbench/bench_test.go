package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"repro/internal/sqltypes"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{100000, 99}, {1000, 99}, {999, 90}, {168, 90}, {100, 90}, {99, 50}, {20, 50}, {3, 50},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", tc.n, got, tc.want)
		}
	}
	// The rule: the reported rung leaves at least ten samples beyond it
	// and the next higher rung does not.
	for n := 20; n <= 5000; n++ {
		p := tailPercentile(n)
		if n-rank(n, p) < minBeyond {
			t.Fatalf("n=%d: p%g leaves %d samples beyond it", n, p, n-rank(n, p))
		}
		for i, q := range tailLadder {
			if q == p && i > 0 && n-rank(n, tailLadder[i-1]) >= minBeyond {
				t.Fatalf("n=%d: p%g reported although p%g leaves ten samples", n, p, tailLadder[i-1])
			}
		}
	}
}

// keyGen draws protein indexes in [0, scale).
type keyGen interface{ Next() int }

func draw(g keyGen, n int) []int {
	ks := make([]int, n)
	for i := range ks {
		ks[i] = g.Next()
		if ks[i] < 0 || ks[i] >= scale {
			panic("key out of range")
		}
	}
	return ks
}

func TestKeyGeneratorsSeeded(t *testing.T) {
	gens := map[string]func(seed int64) keyGen{
		"uniform": func(seed int64) keyGen { return newUniformKeys(seed) },
		"zipf":    func(seed int64) keyGen { return newZipfKeys(seed, 0) },
	}
	for name, mk := range gens {
		a, b, c := draw(mk(7), 1000), draw(mk(7), 1000), draw(mk(8), 1000)
		same, differ := true, false
		for i := range a {
			same = same && a[i] == b[i]
			differ = differ || a[i] != c[i]
		}
		if !same {
			t.Errorf("%s: two generators with seed 7 drew different keys", name)
		}
		if !differ {
			t.Errorf("%s: seeds 7 and 8 drew the same keys", name)
		}
	}
	// The writer and reader streams of one seed share the hot keys but
	// not the sequence.
	w, r := draw(newZipfKeys(7, 0), 1000), draw(newZipfKeys(7, 1), 1000)
	if w[0] == r[0] && w[1] == r[1] && w[2] == r[2] {
		t.Errorf("zipf streams 0 and 1 start with the same keys")
	}
	hot := newZipfKeys(7, 0).perm[0]
	count := func(ks []int) (n int) {
		for _, k := range ks {
			if k == hot {
				n++
			}
		}
		return n
	}
	if count(w) < 50 || count(r) < 50 {
		t.Errorf("hottest key drawn %d and %d times in 1000, want both streams skewed towards it", count(w), count(r))
	}
}

func TestSameRows(t *testing.T) {
	row := func(s string, f float64) sqltypes.Row {
		return sqltypes.Row{sqltypes.NewText(s), sqltypes.NewFloat(f)}
	}
	want := []sqltypes.Row{row("a", 1.5), row("b", 1e6/3)}
	if err := sameRows(want, []sqltypes.Row{row("b", 1e6/3*(1+1e-12)), row("a", 1.5)}); err != nil {
		t.Errorf("reordered rows with a rounding difference: %v", err)
	}
	if err := sameRows(want, []sqltypes.Row{row("a", 1.5), row("b", 1e6/3+1)}); err == nil {
		t.Errorf("a changed aggregate compared equal")
	}
	if err := sameRows(want, want[:1]); err == nil {
		t.Errorf("a missing row compared equal")
	}
}

// benchSpec is the part of BENCHMARK.json the tests compare against.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkOutput checks that a run emitted exactly the metrics listed, with
// their units and well-formed names.
func checkOutput(t *testing.T, res *result, listed []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for name, m := range res.Metrics {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q uses characters outside [A-Za-z0-9_.-]", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v", name, m.Value)
		}
	}
	for _, l := range listed {
		m, ok := res.Metrics[l.Name]
		if !ok {
			t.Errorf("metric %s not emitted", l.Name)
		} else if m.Unit != l.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", l.Name, m.Unit, l.Unit)
		}
	}
	if len(res.Metrics) != len(listed) {
		t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(listed))
	}
}

func TestSpec(t *testing.T) {
	spec := loadSpec(t)
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q uses characters outside [A-Za-z0-9_.-]", m.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}

func TestEndToEndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	spec := loadSpec(t)
	res, err := run(config{workload: "nref-rw", seed: 3, seconds: 1, dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	checkOutput(t, res, spec.EndToEnd)
	for _, m := range spec.EndToEnd {
		if res.Metrics[m.Name].Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
		}
	}
}

// Two traced nref-analytic runs with one seed issue the same statements
// over the same data, so the storage work per statement and the
// analyzer's recommendations must repeat exactly.
func TestAnalyticRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	spec := loadSpec(t)
	var runs []*result
	for i := 0; i < 2; i++ {
		res, err := run(config{workload: "nref-analytic", seed: 5, seconds: 1, trace: true, dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		checkOutput(t, res, spec.PerLayer)
		runs = append(runs, res)
	}
	a, b := runs[0], runs[1]
	if a.Attempted != b.Attempted {
		t.Errorf("attempted %d then %d statements", a.Attempted, b.Attempted)
	}
	for _, name := range []string{"storage.disk_reads_per_stmt", "analyzer.recommendations"} {
		if a.Metrics[name].Value != b.Metrics[name].Value {
			t.Errorf("%s: %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
}
