package experiments

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/nref"
)

// Fig5Sample is one probed statement: its position in the sequence,
// total execution time and the share spent in monitoring sensors.
type Fig5Sample struct {
	Position int
	TotalUs  float64
	MonUs    float64
	Share    float64
}

// Fig5Result is the Share of Monitoring experiment.
type Fig5Result struct {
	// Complex samples the first five queries of the 50 test; Simple
	// samples the point-select sequence at exponentially spaced
	// positions (1, 2, 10, 100, 1000, ...), reproducing both panels of
	// Figure 5.
	Complex []Fig5Sample
	Simple  []Fig5Sample
}

// fig5Runs is the odd number of independent runs RunFig5 takes the
// median of. A probe times one statement of a few microseconds, so one
// burst of host load or garbage collection can decide a single run.
const fig5Runs = 5

// RunFig5 measures the share of monitoring per statement. The first
// statement pays cold caches (catalog, buffer pool, plan compile);
// once everything is warm the fixed monitoring cost dominates very
// simple statements — the paper saw the share grow from a fraction of
// a percent to 90–98%. Every run loads a fresh instance, so each one
// starts cold; each field of a reported sample is the median of that
// field over fig5Runs runs.
func RunFig5(cfg Config) (*Fig5Result, error) {
	cfg.fill()
	runs := make([]*Fig5Result, fig5Runs)
	for r := range runs {
		run, err := runFig5Once(cfg, filepath.Join(cfg.Dir, fmt.Sprintf("fig5_%d", r)))
		if err != nil {
			return nil, err
		}
		runs[r] = run
	}
	median := func(samples func(*Fig5Result) []Fig5Sample, i int) Fig5Sample {
		var total, mon, share []float64
		for _, run := range runs {
			s := samples(run)[i]
			total = append(total, s.TotalUs)
			mon = append(mon, s.MonUs)
			share = append(share, s.Share)
		}
		return Fig5Sample{
			Position: samples(runs[0])[i].Position,
			TotalUs:  medianOf(total),
			MonUs:    medianOf(mon),
			Share:    medianOf(share),
		}
	}
	res := &Fig5Result{}
	for i := range runs[0].Complex {
		res.Complex = append(res.Complex, median(func(r *Fig5Result) []Fig5Sample { return r.Complex }, i))
	}
	for i := range runs[0].Simple {
		res.Simple = append(res.Simple, median(func(r *Fig5Result) []Fig5Sample { return r.Simple }, i))
	}
	return res, nil
}

// medianOf returns the middle of an odd number of values.
func medianOf(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// runFig5Once probes one fresh instance loaded under dir.
func runFig5Once(cfg Config, dir string) (*Fig5Result, error) {
	inst, err := newInstance(cfg, dir, "Monitoring", true, false)
	if err != nil {
		return nil, err
	}
	defer inst.close()

	res := &Fig5Result{}
	s := inst.db.NewSession()
	defer s.Close()

	probe := func(sql string, pos int) (Fig5Sample, error) {
		mon0 := inst.mon.TotalMonitorTime()
		t0 := time.Now()
		if _, err := s.Exec(sql); err != nil {
			return Fig5Sample{}, err
		}
		total := time.Since(t0)
		monD := inst.mon.TotalMonitorTime() - mon0
		return Fig5Sample{
			Position: pos,
			TotalUs:  float64(total) / 1e3,
			MonUs:    float64(monD) / 1e3,
			Share:    float64(monD) / float64(total),
		}, nil
	}

	// Panel 1: the first five complex queries.
	for i, q := range nref.Complex50(cfg.Scale)[:5] {
		sample, err := probe(q, i+1)
		if err != nil {
			return nil, err
		}
		res.Complex = append(res.Complex, sample)
	}

	// Panel 2: the point-select sequence with probes at 1, 2, 10, 100,
	// 1000, 10000, ... up to the configured count.
	probes := map[int]bool{1: true, 2: true, 10: true, 100: true, 1000: true, 10000: true, 100000: true}
	n := cfg.SelectsN
	for i := 1; i <= n; i++ {
		sql := nref.PointSelectStatement(i-1, cfg.Scale)
		if probes[i] {
			sample, err := probe(sql, i)
			if err != nil {
				return nil, err
			}
			res.Simple = append(res.Simple, sample)
			continue
		}
		if _, err := s.Exec(sql); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// String renders both panels.
func (r *Fig5Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 5 — Share of Monitoring in total statement time\n\n")
	b.WriteString("first five queries of the 50 test:\n")
	fmt.Fprintf(&b, "%8s %14s %12s %8s\n", "query", "total µs", "monitor µs", "share")
	for _, s := range r.Complex {
		fmt.Fprintf(&b, "%8d %14.1f %12.2f %7.2f%%\n", s.Position, s.TotalUs, s.MonUs, s.Share*100)
	}
	b.WriteString("\npoint-select sequence (the 1m test):\n")
	fmt.Fprintf(&b, "%8s %14s %12s %8s\n", "stmt#", "total µs", "monitor µs", "share")
	for _, s := range r.Simple {
		fmt.Fprintf(&b, "%8d %14.1f %12.2f %7.2f%%\n", s.Position, s.TotalUs, s.MonUs, s.Share*100)
	}
	return b.String()
}
