package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestScanAllocsPerRow pins the scan pipeline's allocation profile:
// heap rows are decoded into a reused arena, projections write output
// rows into a reused backing, and DISTINCT key probes reuse an encode
// buffer. End to end, a 2000-row projection scan over an
// integer-only table must stay well under one allocation per row — a
// regression to per-row make() anywhere on the path trips the bound
// immediately. (VARCHAR columns are excluded deliberately: decoding a
// string value must copy it out of the pinned page, so each string
// column adds an unavoidable allocation per row.)
func TestScanAllocsPerRow(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()

	const rows = 2000
	mustExec(t, s, "CREATE TABLE nums (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)")
	for base := 0; base < rows; base += 200 {
		var vals []string
		for i := base; i < base+200; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, %d)", i, i%50, i%7))
		}
		mustExec(t, s, "INSERT INTO nums (id, a, b) VALUES "+strings.Join(vals, ", "))
	}

	queries := []string{
		"SELECT id, a + 1 FROM nums WHERE a >= 0",
		"SELECT DISTINCT a FROM nums",
	}
	for _, q := range queries {
		mustExec(t, s, q) // warm plan cache and buffer pool
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := s.Exec(q); err != nil {
				t.Fatal(err)
			}
		})
		perRow := allocs / rows
		t.Logf("%s: %.0f allocs (%.3f/row)", q, allocs, perRow)
		if perRow > 0.5 {
			t.Errorf("%s: %.0f allocs for %d rows (%.2f/row), want < 0.5/row", q, allocs, rows, perRow)
		}
	}
}

// loadKV creates table name(id INTEGER PRIMARY KEY, v INTEGER) holding
// ids 0..rows-1, so its pk_<name> index has full leaves throughout.
func loadKV(t *testing.T, s *Session, name string, rows int) {
	t.Helper()
	mustExec(t, s, "CREATE TABLE "+name+" (id INTEGER PRIMARY KEY, v INTEGER)")
	for base := 0; base < rows; base += 512 {
		var vals []string
		for i := base; i < base+512 && i < rows; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d)", i, i*7))
		}
		mustExec(t, s, "INSERT INTO "+name+" (id, v) VALUES "+strings.Join(vals, ", "))
	}
}

// bytesPerRun is testing.AllocsPerRun for allocated bytes: the mean
// heap bytes one call of f allocates, after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestIndexProbeAllocs pins the cost model of an index probe: one
// descent plus the entries inside the probe's range, through one
// cursor the operator reuses. Steady-state allocations per index-join
// probe must not depend on the inner table's size, and a point select
// must allocate no more bytes when its key opens a full leaf than when
// it closes one — an iterator that buffers past the range's end, or a
// probe that rebuilds its cursor, breaks one bound or the other.
func TestIndexProbeAllocs(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()

	const small, large = 256, 32 << 10
	loadKV(t, s, "inner_s", small)
	loadKV(t, s, "inner_l", large)
	// probes(id, g, k): group g = 0 has 64 rows and g = 1 has 128; k
	// spreads over [0, small), so every probe finds exactly one row in
	// either inner table. The equality on g keeps the outer estimate
	// small enough for an index join even into the small inner table.
	mustExec(t, s, "CREATE TABLE probes (id INTEGER PRIMARY KEY, g INTEGER, k INTEGER)")
	var vals []string
	for i := 0; i < 192; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, %d)", i, min(i/64, 1), i*37%small))
	}
	mustExec(t, s, "INSERT INTO probes (id, g, k) VALUES "+strings.Join(vals, ", "))

	join := func(inner string, g int) string {
		return fmt.Sprintf("SELECT p.id, i.v FROM probes p, %s i WHERE p.k = i.id AND p.g = %d", inner, g)
	}
	perProbe := map[string]float64{}
	for _, inner := range []string{"inner_s", "inner_l"} {
		var stmt [2]float64
		for g, outer := range []int{64, 128} {
			q := join(inner, g)
			if plan := planText(mustExec(t, s, "EXPLAIN "+q)); !strings.Contains(plan, "IndexJoin "+inner) {
				t.Fatalf("%s is not an index join:\n%s", q, plan)
			}
			if n := len(mustExec(t, s, q).Rows); n != outer {
				t.Fatalf("%s: %d rows, want %d", q, n, outer)
			}
			stmt[g] = testing.AllocsPerRun(20, func() {
				if _, err := s.Exec(q); err != nil {
					t.Fatal(err)
				}
			})
		}
		perProbe[inner] = (stmt[1] - stmt[0]) / 64
		t.Logf("%s: %.0f / %.0f allocs for 64 / 128 probes, %.2f per probe", inner, stmt[0], stmt[1], perProbe[inner])
	}
	if perProbe["inner_s"] != perProbe["inner_l"] {
		t.Errorf("allocs per index-join probe: %.2f with %d inner rows, %.2f with %d", perProbe["inner_s"], small, perProbe["inner_l"], large)
	}

	// Keys 0 and large-1 sit at the start of the first leaf and the end
	// of the last one: the old iterator copied a whole leaf for the
	// first and nothing for the second.
	point := func(id int) float64 {
		q := fmt.Sprintf("SELECT v FROM inner_l WHERE id = %d", id)
		if n := len(mustExec(t, s, q).Rows); n != 1 {
			t.Fatalf("%s: %d rows", q, n)
		}
		return bytesPerRun(200, func() {
			if _, err := s.Exec(q); err != nil {
				t.Fatal(err)
			}
		})
	}
	first, last := point(0), point(large-1)
	t.Logf("point select bytes/op: %.0f at the start of a leaf, %.0f at the end", first, last)
	if first > last+256 {
		t.Errorf("point select allocates %.0f B/op at the start of a leaf, %.0f at the end: the probe buffers past its key", first, last)
	}
}
