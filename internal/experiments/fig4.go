package experiments

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/charts"
	"repro/internal/engine"
)

// Fig4Result is the System Performance experiment: wall time of the
// three workloads on the three setups, reported relative to Original.
type Fig4Result struct {
	Tests    []string                      // "50", "50k", "1m" (scaled)
	Setups   []string                      // Original, Monitoring, Daemon
	Seconds  map[string]map[string]float64 // setup -> test -> wall seconds
	Relative map[string]map[string]float64 // setup -> test -> vs Original
	// MonitorShare is the fraction of total time spent in monitor
	// sensors during the point-select test (the text's 11% discussion).
	MonitorShare float64
}

// RunFig4 reproduces Figure 4: three Ingres instances (Original,
// Monitoring, Daemon), three workloads each, all runs repeated on the
// same loaded data.
func RunFig4(cfg Config) (*Fig4Result, error) {
	cfg.fill()
	complex50, joins, selects := generate(cfg)
	res := &Fig4Result{
		Tests:    []string{"50", "50k", "1m"},
		Setups:   []string{"Original", "Monitoring", "Daemon"},
		Seconds:  map[string]map[string]float64{},
		Relative: map[string]map[string]float64{},
	}
	insts := make([]*instance, 0, len(res.Setups))
	defer func() {
		for _, inst := range insts {
			inst.close()
		}
	}()
	for _, name := range res.Setups {
		withMonitor, withDaemon := name != "Original", name == "Daemon"
		inst, err := newInstance(cfg, filepath.Join(cfg.Dir, "fig4_"+strings.ToLower(name)), name, withMonitor, withDaemon)
		if err != nil {
			return nil, err
		}
		insts = append(insts, inst)
		res.Seconds[name] = map[string]float64{}
		// Warm up: run a slice of the complex set so caches and plans
		// are comparable across setups.
		if _, err := runStatements(inst.db, complex50[:5]); err != nil {
			return nil, err
		}
	}
	for ti, stmts := range [][]string{complex50, joins, selects} {
		chunk := fig4Chunk
		if ti == 0 {
			chunk = 1 // a complex query alone runs for milliseconds
		}
		best, mon, err := bestOfChunks(insts, stmts, chunk)
		if err != nil {
			return nil, err
		}
		for i, inst := range insts {
			res.Seconds[inst.name][res.Tests[ti]] = best[i].Seconds()
			if inst.name == "Monitoring" && res.Tests[ti] == "1m" {
				res.MonitorShare = float64(mon[i]) / float64(best[i])
			}
		}
	}
	for _, s := range res.Setups {
		res.Relative[s] = map[string]float64{}
		for _, t := range res.Tests {
			res.Relative[s][t] = res.Seconds[s][t] / res.Seconds["Original"][t]
		}
	}
	return res, nil
}

// fig4Repeats and fig4Chunk shape the timing. As in the paper, every
// test is repeated "to minimize local anomalies" and the fastest run
// is kept, but per chunk of statements rather than per whole run: a
// test's time is the sum of its chunks' fastest runs. A chunk is one
// complex query or fig4Chunk joins or point selects, about a
// millisecond either way. Each chunk runs on every setup in turn
// before the next starts, so a burst of host load lands on one chunk
// of one setup, which another repetition replaces, instead of on a
// whole run.
const fig4Repeats, fig4Chunk = 9, 50

// bestOfChunks times stmts in chunks of size statements on every
// instance and returns, per instance, the summed fastest chunk times
// and the monitor time spent in those fastest runs.
func bestOfChunks(insts []*instance, stmts []string, size int) (best, mon []time.Duration, err error) {
	sessions := make([]*engine.Session, len(insts))
	for i, inst := range insts {
		sessions[i] = inst.db.NewSession()
		defer sessions[i].Close()
	}
	best = make([]time.Duration, len(insts))
	mon = make([]time.Duration, len(insts))
	for lo := 0; lo < len(stmts); lo += size {
		chunk := stmts[lo:min(lo+size, len(stmts))]
		fastest := make([]time.Duration, len(insts))
		fastestMon := make([]time.Duration, len(insts))
		for rep := 0; rep < fig4Repeats; rep++ {
			for i, inst := range insts {
				var mon0 time.Duration
				if inst.mon != nil {
					mon0 = inst.mon.TotalMonitorTime()
				}
				start := time.Now()
				for _, q := range chunk {
					if _, err := sessions[i].Exec(q); err != nil {
						return nil, nil, fmt.Errorf("%w (statement: %.80s)", err, q)
					}
				}
				d := time.Since(start)
				if fastest[i] == 0 || d < fastest[i] {
					fastest[i] = d
					if inst.mon != nil {
						fastestMon[i] = inst.mon.TotalMonitorTime() - mon0
					}
				}
			}
		}
		for i := range insts {
			best[i] += fastest[i]
			mon[i] += fastestMon[i]
		}
	}
	return best, mon, nil
}

// String renders the figure as the paper does: relative runtimes per
// test and setup.
func (r *Fig4Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 4 — System Performance (relative to Original)\n")
	fmt.Fprintf(&b, "%-12s", "setup")
	for _, t := range r.Tests {
		fmt.Fprintf(&b, "%12s", t)
	}
	b.WriteByte('\n')
	for _, s := range r.Setups {
		fmt.Fprintf(&b, "%-12s", s)
		for _, t := range r.Tests {
			fmt.Fprintf(&b, "%11.1f%%", r.Relative[s][t]*100)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "\nabsolute seconds:\n")
	for _, s := range r.Setups {
		fmt.Fprintf(&b, "%-12s", s)
		for _, t := range r.Tests {
			fmt.Fprintf(&b, "%11.3fs", r.Seconds[s][t])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "\nmonitor share of the 1m test (Monitoring setup): %.1f%%\n", r.MonitorShare*100)

	var groups []charts.BarGroup
	for _, t := range r.Tests {
		g := charts.BarGroup{Label: t}
		for _, s := range r.Setups {
			g.Values = append(g.Values, r.Relative[s][t]*100)
		}
		groups = append(groups, g)
	}
	b.WriteByte('\n')
	b.WriteString(charts.BarChart("relative runtime (%)", r.Setups, groups, 48))
	return b.String()
}
