package executor

import (
	"testing"

	"repro/internal/sqltypes"
)

func intRows(n int) []sqltypes.Row {
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i * 2))}
	}
	return rows
}

// TestRowArenaStability verifies carved rows are never clobbered by
// later arena appends, across chunk growth boundaries.
func TestRowArenaStability(t *testing.T) {
	var arena rowArena
	var carved []sqltypes.Row
	for i := 0; i < 5000; i++ {
		carved = append(carved, arena.Combine(
			sqltypes.Row{sqltypes.NewInt(int64(i))},
			sqltypes.Row{sqltypes.NewInt(int64(-i)), sqltypes.NewText("x")}))
	}
	for i, r := range carved {
		if len(r) != 3 || r[0].I != int64(i) || r[1].I != int64(-i) || r[2].S != "x" {
			t.Fatalf("carved row %d corrupted: %v", i, r)
		}
	}
}

func TestSliceRowIterBatches(t *testing.T) {
	it := &SliceRowIter{Rows: intRows(BatchSize + 5)}
	var b Batch
	ok, err := it.NextBatch(&b)
	if err != nil || !ok || len(b.Rows) != BatchSize {
		t.Fatalf("first batch: ok=%v err=%v len=%d", ok, err, len(b.Rows))
	}
	ok, _ = it.NextBatch(&b)
	if !ok || len(b.Rows) != 5 {
		t.Fatalf("second batch: ok=%v len=%d", ok, len(b.Rows))
	}
	ok, _ = it.NextBatch(&b)
	if ok || len(b.Rows) != 0 {
		t.Fatalf("after exhaustion: ok=%v len=%d", ok, len(b.Rows))
	}
}
