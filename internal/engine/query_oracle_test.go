package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/sqltypes"
)

// Query results checked against oracles computed outside the engine:
// a Go model of randomly generated tables, the known contents of a
// pinned snapshot, and per-operator EXPLAIN ANALYZE actuals recorded
// as goldens.

// canonValue renders a value for comparison. Floats keep 10
// significant digits, so sums accumulated in another order still
// compare equal.
func canonValue(v sqltypes.Value) string {
	switch {
	case v.IsNull():
		return "NULL"
	case v.T == sqltypes.Int:
		return strconv.FormatInt(v.I, 10)
	case v.T == sqltypes.Float:
		return strconv.FormatFloat(v.F, 'g', 10, 64)
	default:
		return strconv.Quote(v.S)
	}
}

func canonRow(row sqltypes.Row) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = canonValue(v)
	}
	return strings.Join(parts, "|")
}

// assertRows compares a result against the expected canonical rows:
// as a sequence when ordered, as a multiset otherwise.
func assertRows(t *testing.T, sql string, res *Result, want []string, ordered bool) {
	t.Helper()
	got := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		got[i] = canonRow(r)
	}
	want = append([]string(nil), want...)
	if !ordered {
		sort.Strings(got)
		sort.Strings(want)
	}
	if len(got) != len(want) {
		t.Fatalf("%s:\n%d rows, want %d\ngot:  %q\nwant: %q", sql, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s:\nrow %d = %q, want %q", sql, i, got[i], want[i])
		}
	}
}

// Model values: nil is SQL NULL.
type (
	oracleLeft struct {
		id int64
		a  *int64
		b  float64
		c  *string
	}
	oracleRight struct {
		k, a int64
		d    string
	}
)

func nullableInt(p *int64) string {
	if p == nil {
		return "NULL"
	}
	return strconv.FormatInt(*p, 10)
}

func nullableText(p *string) string {
	if p == nil {
		return "NULL"
	}
	return strconv.Quote(*p)
}

func canonFloat(f float64) string { return strconv.FormatFloat(f, 'g', 10, 64) }

// TestQuickQueriesMatchModel is the property suite: for each seed a
// fresh randomized pair of tables (sizes, values, NULL density all
// seed-derived) and a set of randomized queries over them — filters,
// grouped aggregates, hash, index and loop joins, DISTINCT, ORDER BY,
// LIMIT — whose results must equal the same query computed in Go over
// the generated rows.
func TestQuickQueriesMatchModel(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()

	round := 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		round++
		t1 := fmt.Sprintf("ql%d", round)
		t2 := fmt.Sprintf("qr%d", round)
		mustExec(t, s, fmt.Sprintf(
			"CREATE TABLE %s (id INTEGER PRIMARY KEY, a INTEGER, b FLOAT, c VARCHAR(16))", t1))
		mustExec(t, s, fmt.Sprintf(
			"CREATE TABLE %s (k INTEGER PRIMARY KEY, a INTEGER, d VARCHAR(16))", t2))

		n1 := 100 + rng.Intn(300)
		n2 := 20 + rng.Intn(80)
		tags := []string{"red", "green", "blue", "cyan", ""} // "" is NULL
		left := make([]oracleLeft, n1)
		var vals []string
		for i := range left {
			l := &left[i]
			l.id = int64(i)
			aSQL, cSQL := "NULL", "NULL"
			if rng.Intn(10) > 0 {
				a := int64(rng.Intn(50))
				l.a, aSQL = &a, strconv.FormatInt(a, 10)
			}
			bSQL := fmt.Sprintf("%d.%02d", rng.Intn(100), rng.Intn(100))
			l.b, _ = strconv.ParseFloat(bSQL, 64)
			if tag := tags[rng.Intn(len(tags))]; tag != "" {
				l.c, cSQL = &tag, "'"+tag+"'"
			}
			vals = append(vals, fmt.Sprintf("(%d, %s, %s, %s)", i, aSQL, bSQL, cSQL))
		}
		mustExec(t, s, fmt.Sprintf("INSERT INTO %s (id, a, b, c) VALUES %s", t1, strings.Join(vals, ", ")))
		right := make([]oracleRight, n2)
		vals = vals[:0]
		for i := range right {
			right[i] = oracleRight{k: int64(i), a: int64(rng.Intn(50)), d: fmt.Sprintf("d%02d", rng.Intn(30))}
			vals = append(vals, fmt.Sprintf("(%d, %d, '%s')", i, right[i].a, right[i].d))
		}
		mustExec(t, s, fmt.Sprintf("INSERT INTO %s (k, a, d) VALUES %s", t2, strings.Join(vals, ", ")))

		check := func(sql string, want []string, ordered bool) {
			t.Helper()
			assertRows(t, sql, mustExec(t, s, sql), want, ordered)
		}

		// Filter.
		x := int64(rng.Intn(60))
		var want []string
		for _, l := range left {
			if l.a != nil && *l.a < x {
				want = append(want, fmt.Sprintf("%d|%d|%s|%s", l.id, *l.a, canonFloat(l.b), nullableText(l.c)))
			}
		}
		check(fmt.Sprintf("SELECT * FROM %s WHERE a < %d", t1, x), want, false)

		// Grouped aggregate; NULL c is a group of its own.
		x = int64(rng.Intn(40))
		type agg struct {
			n    int64
			sum  float64
			minA int64
		}
		groups := map[string]*agg{}
		for _, l := range left {
			if l.a == nil || *l.a < x {
				continue
			}
			g := groups[nullableText(l.c)]
			if g == nil {
				g = &agg{minA: *l.a}
				groups[nullableText(l.c)] = g
			}
			g.n++
			g.sum += l.b
			g.minA = min(g.minA, *l.a)
		}
		want = want[:0]
		for c, g := range groups {
			want = append(want, fmt.Sprintf("%s|%d|%s|%d", c, g.n, canonFloat(g.sum), g.minA))
		}
		check(fmt.Sprintf("SELECT c, COUNT(*), SUM(b), MIN(a) FROM %s WHERE a >= %d GROUP BY c", t1, x), want, false)

		// Projection with arithmetic over NULLs, ordered.
		y := float64(rng.Intn(80))
		want = want[:0]
		for _, l := range left {
			if l.b > y {
				a1 := "NULL"
				if l.a != nil {
					a1 = strconv.FormatInt(*l.a+1, 10)
				}
				want = append(want, fmt.Sprintf("%d|%s", l.id, a1))
			}
		}
		check(fmt.Sprintf("SELECT id, a + 1 FROM %s WHERE b > %g ORDER BY id", t1, y), want, true)

		// DISTINCT keeps one NULL.
		x = int64(rng.Intn(40))
		seen := map[string]bool{}
		want = want[:0]
		for _, l := range left {
			if l.a != nil && *l.a > x && !seen[nullableText(l.c)] {
				seen[nullableText(l.c)] = true
				want = append(want, nullableText(l.c))
			}
		}
		check(fmt.Sprintf("SELECT DISTINCT c FROM %s WHERE a > %d", t1, x), want, false)

		// Equi-join on a non-key column (NULL never matches).
		k := int64(rng.Intn(80))
		want = want[:0]
		for _, l := range left {
			for _, r := range right {
				if l.a != nil && *l.a == r.a && r.k < k {
					want = append(want, fmt.Sprintf("%d|%q", l.id, r.d))
				}
			}
		}
		check(fmt.Sprintf("SELECT l.id, r.d FROM %s l JOIN %s r ON l.a = r.a WHERE r.k < %d", t1, t2, k), want, false)

		// Join into the left table's primary key: every right row with
		// k < n1 finds its one partner.
		x = int64(rng.Intn(50))
		want = want[:0]
		for _, r := range right {
			if r.a < x && r.k < int64(n1) {
				want = append(want, fmt.Sprintf("%d|%d|%s", r.k, r.a, canonFloat(left[r.k].b)))
			}
		}
		check(fmt.Sprintf("SELECT r.k, r.a, l.b FROM %s r JOIN %s l ON r.k = l.id WHERE r.a < %d", t2, t1, x), want, false)

		// Theta join: a loop join.
		k = int64(rng.Intn(5))
		want = want[:0]
		for _, l := range left {
			for _, r := range right {
				if r.k < k && l.a != nil && *l.a > r.a {
					want = append(want, fmt.Sprintf("%d|%d", l.id, r.k))
				}
			}
		}
		check(fmt.Sprintf("SELECT l.id, r.k FROM %s l, %s r WHERE r.k < %d AND l.a > r.a", t1, t2, k), want, false)

		// ORDER BY b LIMIT n: b may tie, so check the ordered b values
		// and that the ids are distinct rows carrying them.
		n := 1 + rng.Intn(20)
		sql := fmt.Sprintf("SELECT id, b FROM %s ORDER BY b LIMIT %d", t1, n)
		res := mustExec(t, s, sql)
		bs := make([]float64, n1)
		for i, l := range left {
			bs[i] = l.b
		}
		sort.Float64s(bs)
		if len(res.Rows) != n {
			t.Fatalf("%s: %d rows, want %d", sql, len(res.Rows), n)
		}
		ids := map[int64]bool{}
		for i, r := range res.Rows {
			if r[1].F != bs[i] || left[r[0].I].b != bs[i] || ids[r[0].I] {
				t.Fatalf("%s: row %d = %v, want b = %v", sql, i, r, bs[i])
			}
			ids[r[0].I] = true
		}

		// LIMIT over an ordered join, with OFFSET.
		n, off := 1+rng.Intn(20), rng.Intn(10)
		want = want[:0]
		for _, l := range left {
			for _, r := range right {
				if l.a != nil && *l.a == r.a {
					want = append(want, fmt.Sprintf("%d|%d", l.id, r.k))
				}
			}
		}
		want = want[min(off, len(want)):min(off+n, len(want))]
		check(fmt.Sprintf("SELECT l.id, r.k FROM %s l JOIN %s r ON l.a = r.a ORDER BY l.id, r.k LIMIT %d OFFSET %d",
			t1, t2, n, off), want, true)

		// Global aggregate.
		var sum float64
		for _, l := range left {
			sum += l.b
		}
		check(fmt.Sprintf("SELECT COUNT(*), AVG(b) FROM %s", t1),
			[]string{fmt.Sprintf("%d|%s", n1, canonFloat(sum/float64(n1)))}, false)

		// HAVING over a nullable group key.
		x = int64(rng.Intn(3))
		counts := map[string]int64{}
		for _, l := range left {
			counts[nullableInt(l.a)]++
		}
		want = want[:0]
		for a, c := range counts {
			if c > x {
				want = append(want, fmt.Sprintf("%s|%d", a, c))
			}
		}
		check(fmt.Sprintf("SELECT a, COUNT(*) FROM %s GROUP BY a HAVING COUNT(*) > %d", t1, x), want, false)

		mustExec(t, s, "DROP TABLE "+t1)
		mustExec(t, s, "DROP TABLE "+t2)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

var (
	actualsRe = regexp.MustCompile(`^\s*(\S+).*actual rows=(\d+) time=\S+ self=\S+ nexts=(\d+)`)
	tuplesRe  = regexp.MustCompile(`tuples=(\d+)`)
)

// analyzeCounts strips an EXPLAIN ANALYZE result down to its exact
// per-operator (kind, rows, nexts) triples plus the statement tuple
// count — everything but the timings.
func analyzeCounts(t *testing.T, res *Result) string {
	t.Helper()
	var b strings.Builder
	for _, r := range res.Rows {
		line := r[0].S
		if m := actualsRe.FindStringSubmatch(line); m != nil {
			fmt.Fprintf(&b, "%s rows=%s nexts=%s\n", m[1], m[2], m[3])
		}
		if m := tuplesRe.FindStringSubmatch(line); m != nil {
			fmt.Fprintf(&b, "tuples=%s\n", m[1])
		}
	}
	if b.Len() == 0 {
		t.Fatalf("no actuals found in EXPLAIN ANALYZE output")
	}
	return b.String()
}

// TestExplainAnalyzeCountsMatchGolden pins the tracing exactness
// invariant: per-operator actual rows and Next calls, and the
// monitor's actual-cost tuple counter, equal goldens recorded with the
// row-at-a-time executor this pipeline replaced. The LIMIT queries are
// the exception by design: LIMIT stops pulling once it has its rows,
// so the operators below it report the batch they had produced, and
// their goldens record that rule.
func TestExplainAnalyzeCountsMatchGolden(t *testing.T) {
	db := testDB(t)
	s := db.NewSession()
	defer s.Close()
	setupPeople(t, s)

	golden := []struct{ sql, counts string }{
		{"SELECT name FROM people WHERE city = 'berlin'",
			"Project rows=667 nexts=668\nSeqScan rows=667 nexts=668\ntuples=2667\n"},
		{"SELECT city, COUNT(*), SUM(age) FROM people GROUP BY city",
			"Project rows=3 nexts=4\nAgg rows=3 nexts=4\nSeqScan rows=2000 nexts=2001\ntuples=4003\n"},
		{"SELECT city, AVG(age) FROM people WHERE age < 40 GROUP BY city HAVING COUNT(*) > 10",
			"Project rows=3 nexts=4\nAgg rows=3 nexts=4\nSeqScan rows=800 nexts=801\ntuples=2803\n"},
		{"SELECT p.name, q.city FROM people p JOIN people q ON p.id = q.id WHERE p.age < 30",
			"Project rows=400 nexts=401\nHashJoin rows=400 nexts=401\nSeqScan rows=400 nexts=401\nSeqScan rows=2000 nexts=2001\ntuples=7200\n"},
		{"SELECT DISTINCT city FROM people WHERE age > 25",
			"Distinct rows=3 nexts=4\nProject rows=1760 nexts=1761\nSeqScan rows=1760 nexts=1761\ntuples=5520\n"},
		{"SELECT COUNT(*) FROM people",
			"Project rows=1 nexts=2\nAgg rows=1 nexts=2\nSeqScan rows=2000 nexts=2001\ntuples=4001\n"},
		{"SELECT p.name FROM people p, people q WHERE p.age < q.age AND q.id < 3",
			"Project rows=120 nexts=121\nLoopJoin rows=120 nexts=121\nIndexScan rows=3 nexts=4\nSeqScan rows=2000 nexts=2001\ntuples=14126\n"},
		{"SELECT name FROM people WHERE id >= 100 AND id < 200 AND age > 30",
			"Project rows=78 nexts=79\nIndexScan rows=78 nexts=79\ntuples=178\n"},
		{"SELECT p.name, q.city FROM people p JOIN people q ON p.id = q.id WHERE p.city = 'berlin' AND p.age = 30",
			"Project rows=13 nexts=14\nIndexJoin rows=13 nexts=14\nSeqScan rows=13 nexts=14\ntuples=2039\n"},
		{"SELECT p.name, q.city FROM people p, people q WHERE p.id = q.id AND p.age = 30 AND q.age > 20",
			"Project rows=40 nexts=41\nIndexJoin rows=40 nexts=41\nSeqScan rows=40 nexts=41\ntuples=2160\n"},
		{"SELECT DISTINCT p.city FROM people p, people q WHERE p.id = q.id AND p.age = 31",
			"Distinct rows=3 nexts=4\nProject rows=40 nexts=41\nIndexJoin rows=40 nexts=41\nSeqScan rows=40 nexts=41\ntuples=2160\n"},
		// LIMIT: everything below the sort is drained as before; the
		// sort and the strip above it delivered one batch of sorted rows
		// (1024 of 2000, or all 360), not only the 10 (or 8) rows LIMIT
		// consumed, and were never asked past it. The row-at-a-time
		// executor recorded Strip/Sort rows=10 nexts=10 and Sort rows=8
		// nexts=8 here.
		{"SELECT name FROM people ORDER BY age LIMIT 10",
			"Limit rows=10 nexts=11\nStrip rows=1024 nexts=1024\nSort rows=1024 nexts=1024\nProject rows=2000 nexts=2001\nSeqScan rows=2000 nexts=2001\ntuples=6000\n"},
		{"SELECT id FROM people WHERE age > 60 ORDER BY id LIMIT 5 OFFSET 3",
			"Limit rows=5 nexts=6\nSort rows=360 nexts=360\nProject rows=360 nexts=361\nSeqScan rows=360 nexts=361\ntuples=2720\n"},
	}
	for _, g := range golden {
		res := mustExec(t, s, "EXPLAIN ANALYZE "+g.sql)
		if got := analyzeCounts(t, res); got != g.counts {
			t.Errorf("%s:\nactuals:\n%sgolden:\n%s", g.sql, got, g.counts)
		}
	}

	// The traces also landed in the monitor ring: the last one must
	// agree span by span with the last query's actuals.
	traces := db.Monitor().SnapshotTraces()
	if len(traces) != len(golden) {
		t.Fatalf("monitor holds %d traces, want %d", len(traces), len(golden))
	}
	var b strings.Builder
	for _, sp := range traces[len(traces)-1].Spans {
		fmt.Fprintf(&b, "%s rows=%d nexts=%d\n", sp.Op, sp.Rows, sp.Calls)
	}
	if want := golden[len(golden)-1].counts; !strings.HasPrefix(want, b.String()) {
		t.Errorf("monitor trace spans:\n%sgolden:\n%s", b.String(), want)
	}
}

// TestPinnedSnapshotUnderConcurrentWriters: a session pins a snapshot
// while writers keep committing new versions, leave transactions in
// flight, and roll others back. The heap then holds versions of every
// visibility class — committed-before-snapshot, committed-after,
// in-flight, aborted, and self-deleted — and every scan, aggregate and
// join through the pinned snapshot must return exactly the 400 rows
// inserted before it, every time.
func TestPinnedSnapshotUnderConcurrentWriters(t *testing.T) {
	db := testDB(t)
	setup := db.NewSession()
	mustExec(t, setup, "CREATE TABLE eq (id INTEGER PRIMARY KEY, grp INTEGER, v INTEGER)")
	var vals []string
	for i := 0; i < 400; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, %d)", i, i%7, i))
	}
	mustExec(t, setup, "INSERT INTO eq (id, grp, v) VALUES "+strings.Join(vals, ", "))
	setup.Close()

	// The snapshot's known contents: row i is (i, i%7, i).
	var sum int64
	grpCount, grpSum := map[int64]int64{}, map[int64]int64{}
	for i := int64(0); i < 400; i++ {
		sum += i
		grpCount[i%7]++
		grpSum[i%7] += i
	}
	var byGroup, below60, from340, selfJoin []string
	for g := int64(0); g < 7; g++ {
		byGroup = append(byGroup, fmt.Sprintf("%d|%d|%d", g, grpCount[g], grpSum[g]))
	}
	for i := 0; i < 400; i++ {
		if i < 60 {
			below60 = append(below60, fmt.Sprintf("%d|%d", i, i))
		}
		if i >= 340 {
			from340 = append(from340, strconv.Itoa(i))
		}
		if i%7 == 3 {
			selfJoin = append(selfJoin, fmt.Sprintf("%d|%d", i, i))
		}
	}
	queries := []struct {
		sql     string
		want    []string
		ordered bool
	}{
		{"SELECT COUNT(*), SUM(v) FROM eq", []string{fmt.Sprintf("400|%d", sum)}, false},
		{"SELECT grp, COUNT(*), SUM(v) FROM eq GROUP BY grp", byGroup, false},
		{"SELECT id, v FROM eq WHERE v < 60 ORDER BY id", below60, true},
		{"SELECT id FROM eq WHERE id >= 340 ORDER BY id", from340, true},
		// A self-join probes the heap it is scanning.
		{"SELECT a.id, b.v FROM eq a JOIN eq b ON a.id = b.id WHERE a.grp = 3", selfJoin, false},
	}

	// Two open transactions leave in-flight versions on disk for the
	// whole run; one of them rolls back at the end.
	pend1, pend2 := db.NewSession(), db.NewSession()
	defer pend1.Close()
	defer pend2.Close()
	for _, p := range []*Session{pend1, pend2} {
		if err := p.Begin(); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, pend1, "UPDATE eq SET v = -1 WHERE id < 50")
	mustExec(t, pend2, "DELETE FROM eq WHERE id >= 350")

	r := db.NewSession()
	defer r.Close()
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, r, "SELECT COUNT(*) FROM eq") // pin the snapshot

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // committed churn after the snapshot
		defer wg.Done()
		w := db.NewSession()
		defer w.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			switch i % 3 {
			case 0:
				_, err = w.Exec(fmt.Sprintf("UPDATE eq SET v = v + 100 WHERE id = %d", 100+i%200))
			case 1:
				_, err = w.Exec(fmt.Sprintf("INSERT INTO eq VALUES (%d, 3, 0)", 1000+i))
			default: // aborted churn: versions that must never surface
				if err = w.Begin(); err == nil {
					_, err = w.Exec(fmt.Sprintf("UPDATE eq SET v = -7 WHERE id = %d", 100+i%200))
					w.Rollback()
				}
			}
			if err != nil && !errors.Is(err, ErrWriteConflict) {
				t.Error(err)
				return
			}
		}
	}()

	for round := 0; round < 15; round++ {
		if round == 7 {
			pend2.Rollback() // its deletes stay invisible either way
		}
		for _, q := range queries {
			assertRows(t, q.sql, mustExec(t, r, q.sql), q.want, q.ordered)
		}
	}
	close(stop)
	wg.Wait()

	if err := pend1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchConcurrentSessions hammers the batch pipeline from many
// sessions at once (run under -race in CI): per-session batch state —
// scan batches, decode arenas, expression scratch — must never be
// shared across executions.
func TestBatchConcurrentSessions(t *testing.T) {
	db := testDB(t)
	setup := db.NewSession()
	setupPeople(t, setup)
	setup.Close()

	const goroutines = 8
	const iters = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for i := 0; i < iters; i++ {
				id := (g*iters + i) % peopleRows
				res, err := s.Exec(fmt.Sprintf("SELECT name FROM people WHERE id = %d", id))
				if err == nil && (len(res.Rows) != 1 || res.Rows[0][0].S != fmt.Sprintf("person%04d", id)) {
					err = fmt.Errorf("point select %d: got %v", id, res.Rows)
				}
				if err == nil {
					res, err = s.Exec("SELECT city, COUNT(*) FROM people WHERE age < 40 GROUP BY city")
					if err == nil && len(res.Rows) != 3 {
						err = fmt.Errorf("agg returned %d groups", len(res.Rows))
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
