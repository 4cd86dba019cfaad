package core

import (
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/workloaddb"
)

// TestMvccTelemetryParity runs the registry parity check after a
// workload that exercises begins, commits, aborts, write conflicts and
// a vacuum pass, so the MVCC counters it compares across ima_mvcc,
// ws_mvcc and /metrics are not all zero.
func TestMvccTelemetryParity(t *testing.T) {
	sys, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	s := sys.Session()
	if _, err := s.Exec("CREATE TABLE mp (id INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO mp VALUES (1, 0), (2, 0)"); err != nil {
		t.Fatal(err)
	}
	// A committed transaction, a rollback, update churn for vacuum...
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("UPDATE mp SET v = 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("UPDATE mp SET v = 2 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	s.Rollback()

	// ...and a first-updater-wins conflict between two sessions.
	s2 := sys.Session()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("SELECT v FROM mp WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Exec("UPDATE mp SET v = 7 WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("UPDATE mp SET v = 8 WHERE id = 2"); !errors.Is(err, engine.ErrWriteConflict) {
		t.Fatalf("want ErrWriteConflict, got %v", err)
	}
	s.Rollback()
	s2.Close()
	s.Close()

	// The poll runs vacuum and then snapshots MvccStats into ws_mvcc.
	// With every session closed the counters are quiescent, so a
	// Gather() afterwards reads the same values the row froze.
	if err := sys.Poll(); err != nil {
		t.Fatal(err)
	}

	checkCounterParity(t, sys)

	// The workload actually moved the interesting counters, so the
	// parity above is not a vacuous all-zeroes match.
	row := latestWsRow(t, sys, workloaddb.Mvcc)
	if row["txn_begins"] == 0 || row["txn_commits"] == 0 || row["txn_aborts"] == 0 || row["write_conflicts"] == 0 {
		t.Errorf("workload left begins/commits/aborts/conflicts at %d/%d/%d/%d, parity check vacuous",
			row["txn_begins"], row["txn_commits"], row["txn_aborts"], row["write_conflicts"])
	}
	if row["vacuum_runs"] == 0 {
		t.Error("poll did not run vacuum (vacuum_runs = 0)")
	}
}
