package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/executor"
	"repro/internal/sqltypes"
)

// TestScanPinsStayBounded is the pin property test: scans pin one page
// at a time and hold nothing between batches, so a plain SELECT never
// fails for want of frames however small the pool and however many
// sessions and morsel workers share it. The grid crosses pools of
// 8/16/64 pages with SET PARALLEL 1/2/4/8 and 1/2/4 concurrent
// sessions, each running a COUNT(*) over a table of several morsels, a
// LIMIT query and an index join. Every statement must succeed with the
// right answer, and no frame may stay pinned after a cell.
func TestScanPinsStayBounded(t *testing.T) {
	const rows, probes = 5000, 50
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir, PoolPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE pins (id INTEGER PRIMARY KEY, grp INTEGER, pad VARCHAR(200))")
	mustExec(t, s, "CREATE TABLE probe (id INTEGER PRIMARY KEY, k INTEGER)")
	s.Close()
	pad := sqltypes.NewText(strings.Repeat("x", 150))
	data := make([]sqltypes.Row, rows)
	for i := range data {
		data[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 10)), pad}
	}
	if err := db.BulkInsert("pins", data); err != nil {
		t.Fatal(err)
	}
	data = data[:probes]
	for i := range data {
		data[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i * 97 % rows))}
	}
	if err := db.BulkInsert("probe", data); err != nil {
		t.Fatal(err)
	}
	if pages := db.handle("pins").heap.Pages(); pages < 3*executor.MorselPages {
		t.Fatalf("pins spans %d pages, want at least 3 morsels", pages)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	const join = "SELECT COUNT(*) FROM probe p, pins t WHERE p.k = t.id"
	checks := []struct {
		sql  string
		want func(*Result) bool
	}{
		{"SELECT COUNT(*) FROM pins", func(r *Result) bool { return r.Rows[0][0].I == rows }},
		{"SELECT id, grp FROM pins WHERE grp = 3 LIMIT 7", func(r *Result) bool {
			for _, row := range r.Rows {
				if row[1].I != 3 {
					return false
				}
			}
			return len(r.Rows) == 7
		}},
		{join, func(r *Result) bool { return r.Rows[0][0].I == probes }},
	}
	for _, poolPages := range []int{8, 16, 64} {
		db, err := Open(Config{Dir: dir, PoolPages: poolPages})
		if err != nil {
			t.Fatal(err)
		}
		s := db.NewSession()
		if plan := planText(mustExec(t, s, "EXPLAIN "+join)); !strings.Contains(plan, "IndexJoin") {
			t.Fatalf("join is not an index join:\n%s", plan)
		}
		s.Close()
		for _, parallel := range []int{1, 2, 4, 8} {
			for _, sessions := range []int{1, 2, 4} {
				var wg sync.WaitGroup
				errs := make(chan error, sessions)
				for g := 0; g < sessions; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						s := db.NewSession()
						defer s.Close()
						s.SetParallel(parallel)
						for _, c := range checks {
							res, err := s.Exec(c.sql)
							if err == nil && !c.want(res) {
								err = fmt.Errorf("%s: wrong result %v", c.sql, res.Rows)
							}
							if err != nil {
								errs <- err
								return
							}
						}
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Errorf("pool %d, parallel %d, %d sessions: %v", poolPages, parallel, sessions, err)
				}
				if n := db.pool.PinnedFrames(); n != 0 {
					t.Errorf("pool %d, parallel %d, %d sessions: %d frames still pinned", poolPages, parallel, sessions, n)
				}
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
