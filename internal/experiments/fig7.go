package experiments

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/analyzer"
	"repro/internal/charts"
	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/nref"
)

// Fig7Row is one configuration of the analyzer experiment.
type Fig7Row struct {
	Name            string
	RuntimeSec      float64
	RuntimePercent  float64 // vs Unoptimised
	DBBytes         int64
	SecondaryIdx    int // secondary indexes beyond primary keys
	AnalysisSeconds float64
}

// Fig7Result compares unoptimized, manually optimized and
// analyzer-optimized configurations on the 50-query workload, plus the
// analyzer detail the paper reports in §V-B (statements flagged for
// statistics, tables flagged for restructuring, indexes recommended).
type Fig7Result struct {
	Rows []Fig7Row

	FlaggedStatements int // est vs actual divergence ("31 statements")
	ModifyRecs        int // B-Tree recommendations ("all six tables")
	IndexRecs         int // recommended secondary indexes ("12")
	ReferenceIdx      int // the manual reference set ("33")

	// Fig6 is the cost diagram of the ten most expensive statements
	// (actual vs estimated vs estimate with virtual indexes), produced
	// by the same analyzer run.
	Fig6 string
	// Report keeps the full analyzer output for inspection.
	Report *analyzer.Report
}

// RunFig7 reproduces Figures 6 and 7: it loads three identical NREF
// databases, tunes one manually (reference indexes + B-Tree + full
// statistics), lets the analyzer tune another from monitored workload
// data, and measures workload runtime and database size for all three.
// The runtimes are taken together at the end, chunk by chunk as in
// Figure 4 (bestOfChunks), so host load during the experiment reaches
// all three configurations alike.
func RunFig7(cfg Config) (*Fig7Result, error) {
	cfg.fill()
	workload := nref.Complex50(cfg.Scale)[:cfg.ComplexN]
	res := &Fig7Result{ReferenceIdx: len(nref.ReferenceIndexes())}

	// --- Unoptimised -------------------------------------------------
	unopt, err := newInstance(cfg, filepath.Join(cfg.Dir, "fig7_unopt"), "Unoptimised", false, false)
	if err != nil {
		return nil, err
	}
	defer unopt.close()

	// --- Manually optimised ------------------------------------------
	manual, err := newInstance(cfg, filepath.Join(cfg.Dir, "fig7_manual"), "Manual", false, false)
	if err != nil {
		return nil, err
	}
	defer manual.close()
	ms := manual.db.NewSession()
	defer ms.Close()
	for _, tbl := range nref.Tables {
		if _, err := ms.Exec("MODIFY " + tbl + " TO BTREE"); err != nil {
			return nil, err
		}
		if _, err := ms.Exec("CREATE STATISTICS FOR " + tbl); err != nil {
			return nil, err
		}
	}
	for _, ddl := range nref.ReferenceIndexes() {
		if _, err := ms.Exec(ddl); err != nil {
			return nil, err
		}
	}

	// --- Analyzer-optimised -------------------------------------------
	auto, err := newInstance(cfg, filepath.Join(cfg.Dir, "fig7_auto"), "Analyser", true, false)
	if err != nil {
		return nil, err
	}
	defer auto.close()
	// Record the workload with the monitor on.
	if _, err := runStatements(auto.db, workload); err != nil {
		return nil, err
	}
	wdb, err := engine.Open(engine.Config{Dir: filepath.Join(cfg.Dir, "fig7_auto", "wdb"), PoolPages: 512})
	if err != nil {
		return nil, err
	}
	defer wdb.Close()
	dm, err := daemon.New(daemon.Config{Source: auto.db, Mon: auto.mon, Target: wdb})
	if err != nil {
		return nil, err
	}
	if err := dm.Poll(); err != nil {
		return nil, err
	}
	an, err := analyzer.New(analyzer.Config{Source: auto.db, WorkloadDB: wdb})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	rep, err := an.Analyze()
	if err != nil {
		return nil, err
	}
	if err := an.Apply(rep); err != nil {
		return nil, err
	}
	analysisTime := time.Since(t0)
	res.Report = rep
	res.Fig6 = rep.CostDiagram
	res.FlaggedStatements = rep.DivergentCount
	for _, r := range rep.Recommendations {
		switch r.Kind {
		case analyzer.KindModify:
			res.ModifyRecs++
		case analyzer.KindIndex:
			res.IndexRecs++
		}
	}
	// Measure without the monitoring overhead, as the paper does.
	auto.mon.SetEnabled(false)

	insts := []*instance{unopt, manual, auto}
	for _, inst := range insts {
		if _, err := runStatements(inst.db, workload); err != nil { // warm
			return nil, err
		}
	}
	best, _, err := bestOfChunks(insts, workload, 1)
	if err != nil {
		return nil, err
	}
	secondary := []int{0, res.ReferenceIdx, res.IndexRecs}
	for i, inst := range insts {
		inst.db.Checkpoint()
		res.Rows = append(res.Rows, Fig7Row{
			Name: inst.name, RuntimeSec: best[i].Seconds(),
			DBBytes: inst.db.SizeBytes(), SecondaryIdx: secondary[i],
		})
	}
	res.Rows[2].AnalysisSeconds = analysisTime.Seconds()

	base := res.Rows[0].RuntimeSec
	for i := range res.Rows {
		res.Rows[i].RuntimePercent = res.Rows[i].RuntimeSec / base * 100
	}
	return res, nil
}

// String renders the comparison table and charts.
func (r *Fig7Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 7 — Analyser Results (50-query workload)\n")
	fmt.Fprintf(&b, "%-14s %12s %10s %14s %10s\n", "setup", "runtime", "relative", "db size", "2nd idx")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %11.3fs %9.1f%% %12.1fMB %10d\n",
			row.Name, row.RuntimeSec, row.RuntimePercent,
			float64(row.DBBytes)/1e6, row.SecondaryIdx)
	}
	fmt.Fprintf(&b, "\nanalysis of the workload took %.1fs\n", r.Rows[len(r.Rows)-1].AnalysisSeconds)
	fmt.Fprintf(&b, "statements flagged for statistics (est vs actual diverge): %d of %d\n",
		r.FlaggedStatements, len(r.Report.Statements))
	fmt.Fprintf(&b, "tables recommended for MODIFY TO BTREE: %d\n", r.ModifyRecs)
	fmt.Fprintf(&b, "secondary indexes recommended: %d (reference set: %d)\n", r.IndexRecs, r.ReferenceIdx)

	var rt, sz []charts.BarGroup
	for _, row := range r.Rows {
		rt = append(rt, charts.BarGroup{Label: row.Name, Values: []float64{row.RuntimePercent}})
		sz = append(sz, charts.BarGroup{Label: row.Name, Values: []float64{float64(row.DBBytes) / 1e6}})
	}
	b.WriteByte('\n')
	b.WriteString(charts.BarChart("workload runtime (% of unoptimised)", []string{"runtime"}, rt, 48))
	b.WriteByte('\n')
	b.WriteString(charts.BarChart("database size (MB)", []string{"size"}, sz, 48))
	b.WriteString("\nFigure 6 — Cost Diagram\n")
	b.WriteString(r.Fig6)
	return b.String()
}
