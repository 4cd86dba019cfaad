package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/nref"
	"repro/internal/sqltypes"
)

const (
	// scale is the NREF protein count: about 56k rows and 9.2 MB on
	// disk, so the point working set fits a 2048-page pool and the
	// analytic scans do not fit a 1024-page one.
	scale = 8000
	// dataSeed fixes the NREF database itself; --seed draws only the
	// workload's keys, as the paper runs its tests over one fixed NREF
	// instance.
	dataSeed = 1
	// pollInterval is the paper's "Daemon" setup: the benchmark polls
	// the storage daemon once a second.
	pollInterval = time.Second
	// analyticPassSeconds sizes nref-analytic: it runs
	// ceil(seconds/analyticPassSeconds) whole passes, so the pass count
	// is fixed for a given --seconds and identical on every commit. A
	// pass took 6-8 s on the 2-CPU box the benchmark was sized on.
	analyticPassSeconds = 7
	// zipfS is the key skew of nref-rw: hot rows grow version chains
	// that vacuum reclaims on each poll.
	zipfS = 1.1
)

// op is one statement a client session issues and the check its result
// must pass.
type op struct {
	sql   string
	write bool
	check func(*engine.Result) error
}

// workload is one named closed-loop traffic mix over the NREF database.
type workload struct {
	name      string
	poolPages int
	// warmup runs the clients untimed before the first phase: the
	// first seconds of a run were its slowest on the 2-CPU box the
	// benchmark was sized on. 0 skips it.
	warmup time.Duration
	// start prepares a run on a loaded system.
	start func(sys *core.System, seed int64) (*runState, error)
}

// runState is a prepared run: one op generator per client session, run
// for a fixed time or, when passLen > 0, for whole passes of passLen
// ops; verify checks the database after the last phase.
type runState struct {
	clients []func() op
	passLen int
	verify  func() error
}

var workloads = []workload{
	{
		name:      "nref-point",
		poolPages: 2048,
		warmup:    3 * time.Second,
		start:     startPoint,
	},
	{
		name:      "nref-analytic",
		poolPages: 1024,
		start:     startAnalytic,
	},
	{
		name:      "nref-rw",
		poolPages: 2048,
		warmup:    3 * time.Second,
		start:     startRW,
	},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// uniformKeys draws keys uniformly.
type uniformKeys struct{ r *rand.Rand }

func newUniformKeys(seed int64) *uniformKeys {
	return &uniformKeys{r: rand.New(rand.NewSource(seed))}
}

func (u *uniformKeys) Next() int { return u.r.Intn(scale) }

// zipfKeys draws Zipf-ranked keys mapped through a seeded permutation,
// so the hot rows are scattered over the heap instead of sharing its
// first pages. Streams built from one seed share the permutation: they
// draw from one distribution with independent random sequences.
type zipfKeys struct {
	z    *rand.Zipf
	perm []int
}

func newZipfKeys(seed, stream int64) *zipfKeys {
	perm := rand.New(rand.NewSource(seed)).Perm(scale)
	r := rand.New(rand.NewSource(seed*1000003 + stream + 1))
	return &zipfKeys{z: rand.NewZipf(r, zipfS, 1, scale-1), perm: perm}
}

func (z *zipfKeys) Next() int { return z.perm[z.z.Uint64()] }

func pointOp(k int) op {
	id := nref.NrefID(k)
	return op{sql: nref.PointSelectStatement(k, scale), check: func(res *engine.Result) error {
		if len(res.Rows) != 1 || len(res.Rows[0]) != 1 || res.Rows[0][0].S != id {
			return fmt.Errorf("point select %s returned %v", id, res.Rows)
		}
		return nil
	}}
}

func joinOp(k int) op {
	id := nref.NrefID(k)
	return op{sql: nref.SimpleJoinStatement(k, scale), check: func(res *engine.Result) error {
		// Every protein has one or two organisms.
		if len(res.Rows) == 0 {
			return fmt.Errorf("simple join %s returned no rows", id)
		}
		for _, row := range res.Rows {
			if len(row) != 3 || row[0].S != id {
				return fmt.Errorf("simple join %s returned row %v", id, row)
			}
		}
		return nil
	}}
}

func startPoint(_ *core.System, seed int64) (*runState, error) {
	keys := newUniformKeys(seed)
	return &runState{clients: []func() op{func() op { return pointOp(keys.Next()) }}}, nil
}

func startRW(sys *core.System, seed int64) (*runState, error) {
	before, err := sumLength(sys)
	if err != nil {
		return nil, err
	}
	var acked atomic.Int64
	wkeys, rkeys := newZipfKeys(seed, 0), newZipfKeys(seed, 1)
	writer := func() op {
		id := nref.NrefID(wkeys.Next())
		return op{
			sql:   fmt.Sprintf("UPDATE protein SET length = length + 1 WHERE nref_id = '%s'", id),
			write: true,
			check: func(res *engine.Result) error {
				if res.RowsAffected != 1 {
					return fmt.Errorf("update %s affected %d rows", id, res.RowsAffected)
				}
				acked.Add(1)
				return nil
			},
		}
	}
	join := false
	reader := func() op {
		join = !join
		if join {
			return joinOp(rkeys.Next())
		}
		return pointOp(rkeys.Next())
	}
	verify := func() error {
		after, err := sumLength(sys)
		if err != nil {
			return err
		}
		if want := before + acked.Load(); after != want {
			return fmt.Errorf("SUM(length) = %d after %d acknowledged updates, want %d", after, acked.Load(), want)
		}
		return nil
	}
	return &runState{clients: []func() op{writer, reader}, verify: verify}, nil
}

func sumLength(sys *core.System) (int64, error) {
	s := sys.Session()
	defer s.Close()
	res, err := s.Exec("SELECT SUM(length) FROM protein")
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return 0, fmt.Errorf("SUM(length) returned %v", res.Rows)
	}
	return res.Rows[0][0].AsInt(), nil
}

// scanAggregates are the single-table scan-aggregates each analytic
// pass adds to Complex50, so a pass also runs morsel-parallel heap
// scans.
var scanAggregates = []string{
	"SELECT COUNT(*), SUM(length), AVG(mol_weight) FROM protein WHERE length > 300",
	"SELECT source_id, COUNT(*), MAX(length), AVG(mol_weight) FROM protein GROUP BY source_id ORDER BY source_id",
	"SELECT COUNT(*), AVG(length), MIN(crc), MAX(crc) FROM sequence WHERE length < 600",
	"SELECT length, COUNT(*) FROM sequence WHERE length > 900 GROUP BY length ORDER BY length",
	"SELECT feature, COUNT(*), MAX(ordinal) FROM annotation GROUP BY feature ORDER BY feature",
	"SELECT COUNT(*), MIN(nref_id), MAX(nref_id) FROM annotation WHERE ordinal >= 2",
}

// startAnalytic runs Complex50 and the scan-aggregates in a fixed order:
// like the paper's "50" test the query set is fixed, and the order
// decides which pages each query finds cached, so the seed does not
// change it.
func startAnalytic(_ *core.System, _ int64) (*runState, error) {
	qs := append(nref.Complex50(scale), scanAggregates...)
	ref := make([][]sqltypes.Row, len(qs))
	i := 0
	next := func() op {
		qi := i % len(qs)
		i++
		return op{sql: qs[qi], check: func(res *engine.Result) error {
			if ref[qi] == nil {
				ref[qi] = append([]sqltypes.Row{}, res.Rows...)
				return nil
			}
			if err := sameRows(ref[qi], res.Rows); err != nil {
				return fmt.Errorf("analytic query %d changed between passes: %v", qi, err)
			}
			return nil
		}}
	}
	return &runState{clients: []func() op{next}, passLen: len(qs)}, nil
}

// floatTol is the relative tolerance for float aggregates: morsel
// summation order varies between passes.
const floatTol = 1e-9

// sameRows compares two results as multisets: rows are ordered by their
// non-float columns (stably, so ties keep the returned order) and then
// compared column by column, floats within floatTol.
func sameRows(want, got []sqltypes.Row) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	w, g := sortedRows(want), sortedRows(got)
	for i := range w {
		if len(w[i]) != len(g[i]) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(g[i]), len(w[i]))
		}
		for c := range w[i] {
			if !sameValue(w[i][c], g[i][c]) {
				return fmt.Errorf("row %d column %d = %v, want %v", i, c, g[i][c], w[i][c])
			}
		}
	}
	return nil
}

func sortedRows(rows []sqltypes.Row) []sqltypes.Row {
	out := append([]sqltypes.Row{}, rows...)
	sort.SliceStable(out, func(i, j int) bool { return exactKey(out[i]) < exactKey(out[j]) })
	return out
}

func exactKey(row sqltypes.Row) string {
	var b strings.Builder
	for _, v := range row {
		if v.T != sqltypes.Float {
			b.WriteString(v.String())
		}
		b.WriteByte(0)
	}
	return b.String()
}

func sameValue(a, b sqltypes.Value) bool {
	if a.T == sqltypes.Float && b.T == sqltypes.Float {
		return math.Abs(a.F-b.F) <= floatTol*math.Max(1, math.Max(math.Abs(a.F), math.Abs(b.F)))
	}
	return a.T == b.T && sqltypes.Equal(a, b)
}
