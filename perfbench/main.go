// Command perfbench measures the integrated monitored DBMS end to end:
// core.Open (engine, monitor, IMA, storage daemon, workload DB,
// analyzer) over the synthetic NREF database, driven by closed-loop
// client sessions while the benchmark polls the daemon once a second.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload nref-point --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs an untraced
// phase and then a traced one and reports the per-layer metrics. The
// last line of standard output is one JSON object; README.md lists the
// metrics and which layer each one follows.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/nref"
	"repro/internal/sqlparser"
)

const (
	// setupRepeats is how many times a run opens and loads a fresh
	// system; setup_s is the median.
	setupRepeats = 5
	// analyzeRepeats is how many times a run calls System.Analyze at
	// the end; analyze_ms is the median.
	analyzeRepeats = 5
	// maxSamples is how many of each client's first traced statements
	// the parse and plan probes replay.
	maxSamples = 4096
	// planRepeats and imaRepeats size the remaining probes.
	planRepeats = 20
	imaRepeats  = 5
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: nref-point, nref-analytic or nref-rw")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds per phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs an untraced and a traced phase and reports per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "directory for the databases and the trace file")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if flag.NArg() > 0 || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// tally is what clients did in a phase: each client keeps its own, and
// the phase merges them.
type tally struct {
	reads, writes     []time.Duration
	readWin, writeWin []float64 // completions per pollInterval window
	passQPS           []float64 // whole passes: reads per second of each
	attempted, failed int64
	wrong             int64
	firstWrong        error
	samples           []string // traced statements the probes replay
}

func (t *tally) merge(o *tally) {
	t.reads = append(t.reads, o.reads...)
	t.writes = append(t.writes, o.writes...)
	for w := range t.readWin {
		t.readWin[w] += o.readWin[w]
		t.writeWin[w] += o.writeWin[w]
	}
	t.passQPS = append(t.passQPS, o.passQPS...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	if t.firstWrong == nil {
		t.firstWrong = o.firstWrong
	}
	t.samples = append(t.samples, o.samples...)
}

// phase is one measured (or warm-up) interval of the clients.
type phase struct {
	tally
	start, end    time.Time
	bufs          []*spanBuf // one per client when traced
	before, after counters
}

// runPhase runs every client in its own session until dur has passed
// or, when passes > 0, for that many whole passes.
func runPhase(sys *core.System, rs *runState, dur time.Duration, passes int, traced bool, epoch time.Time) *phase {
	nWin := int(dur / pollInterval)
	newTally := func() tally {
		return tally{readWin: make([]float64, nWin), writeWin: make([]float64, nWin)}
	}
	p := &phase{tally: newTally(), before: readCounters(sys)}
	tallies := make([]tally, len(rs.clients))
	if traced {
		for i := range rs.clients {
			p.bufs = append(p.bufs, newSpanBuf(epoch, int64(i+1)))
		}
	}
	var wg sync.WaitGroup
	p.start = time.Now()
	deadline := p.start.Add(dur)
	for i := range rs.clients {
		tallies[i] = newTally()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l := &tallies[i]
			s := sys.Session()
			defer s.Close()
			passStart, passReads := p.start, 0
			for n := 0; passes == 0 || n < passes*rs.passLen; n++ {
				o := rs.clients[i]()
				t0 := time.Now()
				res, err := s.Exec(o.sql)
				t1 := time.Now()
				d := t1.Sub(t0)
				l.attempted++
				if traced {
					name := spanExecRead
					if o.write {
						name = spanExecWrite
					}
					b := p.bufs[i]
					b.add(name, t0, t1, b.newReq(), -1)
					if len(l.samples) < maxSamples {
						l.samples = append(l.samples, o.sql)
					}
				}
				if err != nil {
					if l.failed == 0 {
						fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.sql, err)
					}
					l.failed++
				} else if cerr := o.check(res); cerr != nil {
					if l.wrong == 0 {
						l.firstWrong = cerr
					}
					l.wrong++
				}
				w := int(t1.Sub(p.start) / pollInterval)
				if o.write {
					l.writes = append(l.writes, d)
					if w < nWin {
						l.writeWin[w]++
					}
				} else {
					l.reads = append(l.reads, d)
					passReads++
					if w < nWin {
						l.readWin[w]++
					}
				}
				if passes > 0 && (n+1)%rs.passLen == 0 {
					l.passQPS = append(l.passQPS, float64(passReads)/t1.Sub(passStart).Seconds())
					passStart, passReads = t1, 0
				}
				if passes == 0 && !t1.Before(deadline) {
					break
				}
			}
		}(i)
	}
	wg.Wait()
	p.end = time.Now()
	p.after = readCounters(sys)
	for i := range tallies {
		p.merge(&tallies[i])
	}
	sortDurations(p.reads)
	sortDurations(p.writes)
	return p
}

// readQPS is the median of the per-window read rates, or for whole
// passes the median of the per-pass rates.
func (p *phase) readQPS() float64 {
	if len(p.passQPS) > 0 {
		return median(p.passQPS)
	}
	return median(p.readWin) / pollInterval.Seconds()
}

func (p *phase) writeQPS() float64 {
	return median(p.writeWin) / pollInterval.Seconds()
}

// poller polls the storage daemon every pollInterval, as the paper's
// "Daemon" setup does, timing each poll. Its fields are read only after
// Stop.
type poller struct {
	stop, done chan struct{}
	once       sync.Once
	buf        *spanBuf // daemon.poll spans
	heap       []heapSample
	err        error // the first failed poll
}

type heapSample struct {
	at    time.Time
	bytes uint64
}

// startPoller starts the polling goroutine; sampleHeap also samples the
// process heap after each poll.
func startPoller(sys *core.System, epoch time.Time, sampleHeap bool) *poller {
	p := &poller{stop: make(chan struct{}), done: make(chan struct{}), buf: newSpanBuf(epoch, 0)}
	go func() {
		defer close(p.done)
		t := time.NewTicker(pollInterval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
			t0 := time.Now()
			err := sys.Poll()
			t1 := time.Now()
			p.buf.add(spanPoll, t0, t1, p.buf.newReq(), -1)
			if err != nil && p.err == nil {
				p.err = err
			}
			if sampleHeap {
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				p.heap = append(p.heap, heapSample{at: t1, bytes: m.HeapInuse})
			}
		}
	}()
	return p
}

// Stop ends the polling goroutine, waits for it and returns the first
// poll error. It may be called more than once.
func (p *poller) Stop() error {
	p.once.Do(func() { close(p.stop) })
	<-p.done
	return p.err
}

// pollsIn returns the durations of the polls that started inside the
// phase, sorted.
func (p *poller) pollsIn(ph *phase, epoch time.Time) []time.Duration {
	lo, hi := int64(ph.start.Sub(epoch)), int64(ph.end.Sub(epoch))
	var d []time.Duration
	for _, s := range p.buf.spans {
		if s.start >= lo && s.start < hi {
			d = append(d, s.dur())
		}
	}
	return sortDurations(d)
}

// setup opens and loads one fresh system in dir and returns it with the
// time taken: core.Open, the NREF load and its checkpoint.
func setup(dir string, poolPages int) (*core.System, time.Duration, error) {
	t0 := time.Now()
	sys, err := core.Open(core.Options{Dir: dir, PoolPages: poolPages})
	if err != nil {
		return nil, 0, err
	}
	if err := nref.NewGenerator(scale, dataSeed).Load(sys.DB); err != nil {
		sys.Close()
		return nil, 0, err
	}
	return sys, time.Since(t0), nil
}

// runContext describes the host and the run; it heads every output.
func runContext(cfg config, wl workload, clients, passes int) map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"go":            runtime.Version(),
		"revision":      rev,
		"scale":         scale,
		"pool_pages":    wl.poolPages,
		"poll_interval": pollInterval.String(),
		"clients":       clients,
		"passes":        passes,
	}
}

func run(cfg config) (*result, error) {
	wl, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	// Set-up, repeated; the last system is the one measured.
	var sys *core.System
	setups := make([]float64, setupRepeats)
	for i := range setups {
		dir := filepath.Join(work, fmt.Sprintf("sys%d", i))
		s, d, err := setup(dir, wl.poolPages)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups[i] = d.Seconds()
		if i < setupRepeats-1 {
			if err := s.Close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		sys = s
	}
	defer sys.Close()

	rs, err := wl.start(sys, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("start: %w", err)
	}
	passes := 0
	if rs.passLen > 0 {
		passes = (cfg.seconds + analyticPassSeconds - 1) / analyticPassSeconds
	}
	ctxJSON, err := json.Marshal(runContext(cfg, wl, len(rs.clients), passes))
	if err != nil {
		return nil, err
	}
	fmt.Printf("perfbench: context %s\n", ctxJSON)
	runtime.GC()
	epoch := time.Now()
	pl := startPoller(sys, epoch, cfg.trace)
	defer pl.Stop()
	dur := time.Duration(cfg.seconds) * time.Second
	var phases []*phase
	if wl.warmup > 0 {
		phases = append(phases, runPhase(sys, rs, wl.warmup, 0, false, epoch))
	}
	untraced := runPhase(sys, rs, dur, passes, false, epoch)
	phases = append(phases, untraced)
	var traced *phase
	if cfg.trace {
		traced = runPhase(sys, rs, dur, passes, true, epoch)
		phases = append(phases, traced)
	}
	if err := pl.Stop(); err != nil {
		return nil, fmt.Errorf("daemon poll: %w", err)
	}
	// Persist what the last interval collected, then time the analyzer
	// over the workload DB the run filled.
	if err := sys.Poll(); err != nil {
		return nil, fmt.Errorf("daemon poll: %w", err)
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		if ph.wrong > 0 {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %d wrong results; first: %v\n", ph.wrong, ph.firstWrong)
		}
	}
	if rs.verify != nil {
		if err := rs.verify(); err != nil {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	}

	probe := newSpanBuf(epoch, 0xff)
	// The probe root spans the analyzer calls and the layer probes; its
	// end is set once they are done.
	probeRoot := probe.add(spanProbe, time.Now(), time.Now(), probe.newReq(), -1)
	analyzeMs := make([]float64, analyzeRepeats)
	recs := -1
	for i := range analyzeMs {
		t0 := time.Now()
		rep, err := sys.Analyze()
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("analyze: %w", err)
		}
		probe.add(spanAnalyze, t0, t1, probe.newReq(), probeRoot)
		analyzeMs[i] = ms(t1.Sub(t0))
		if recs >= 0 && len(rep.Recommendations) != recs {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: analyze returned %d then %d recommendations over one workload DB\n", recs, len(rep.Recommendations))
		}
		recs = len(rep.Recommendations)
	}

	put := func(name string, v float64, unit string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	if traced == nil {
		put("setup_s", median(setups), "s")
		put("read_qps", untraced.readQPS(), "1/s")
		put("read_p50_us", us(percentile(untraced.reads, 50)), "us")
		put("read_p90_us", us(percentile(untraced.reads, 90)), "us")
		put("success_rate", 1-ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
		fmt.Printf("perfbench: setup seconds %.4f\n", setups)
		printExtra(untraced, res, median(analyzeMs))
	} else {
		put("analyzer.analyze_ms", median(analyzeMs), "ms")
		put("analyzer.recommendations", float64(recs), "count")
		if err := layerMetrics(sys, pl, untraced, traced, probe, probeRoot, epoch, put); err != nil {
			return nil, err
		}
		probe.spans[probeRoot].end = int64(time.Since(epoch))
		bufs := append(append([]*spanBuf{}, traced.bufs...), pl.buf, probe)
		path := filepath.Join(cfg.dir, fmt.Sprintf("trace-%s.csv.gz", cfg.workload))
		if err := writeTrace(path, "perfbench context "+string(ctxJSON), bufs); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("perfbench: %d spans written to %s\n", countSpans(bufs), path)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("perfbench: %-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// figure is a named metric.
type figure struct {
	name string
	metric
}

// tailFigures returns an untraced phase's deepest read tail and its
// write-path figures (zero on a workload without writes). They are not
// end-to-end metrics: the p99 tail varied up to 25% between runs of one
// build on the 2-CPU box the benchmark was sized on, and only nref-rw
// writes.
func tailFigures(p *phase) []figure {
	return []figure{
		{"read_tail_us", metric{us(percentile(p.reads, tailPercentile(len(p.reads)))), "us"}},
		{"write_qps", metric{p.writeQPS(), "1/s"}},
		{"write_p50_us", metric{us(percentile(p.writes, 50)), "us"}},
		{"write_tail_us", metric{us(percentile(p.writes, tailPercentile(len(p.writes)))), "us"}},
	}
}

// printExtra prints the figures an untraced run measures beyond its
// end-to-end metrics.
func printExtra(p *phase, res *result, analyzeMs float64) {
	fmt.Printf("perfbench: error_rate %g (%d of %d statements failed)\n",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	fmt.Printf("perfbench: analyze_ms %.4f ms, median of %d System.Analyze calls\n", analyzeMs, analyzeRepeats)
	if len(p.passQPS) > 0 {
		fmt.Printf("perfbench: reads per second of each pass %.4f\n", p.passQPS)
	}
	for _, f := range tailFigures(p) {
		fmt.Printf("perfbench: %s %.4f %s\n", f.name, f.Value, f.Unit)
	}
	fmt.Printf("perfbench: read_tail_us is p%g of %d reads, write_tail_us p%g of %d writes\n",
		tailPercentile(len(p.reads)), len(p.reads), tailPercentile(len(p.writes)), len(p.writes))
}

func countSpans(bufs []*spanBuf) int {
	n := 0
	for _, b := range bufs {
		n += len(b.spans)
	}
	return n
}

// layerMetrics derives the per-layer metrics from the traced phase's
// spans and counter deltas, runs the parse, plan and IMA probes, and
// compares the traced phase with the untraced one.
func layerMetrics(sys *core.System, pl *poller, u, t *phase, probe *spanBuf, root int32, epoch time.Time, put func(string, float64, string)) error {
	// Probes: replay sampled statements through the parser, plan each
	// distinct SELECT shape, read ima_statements through a session.
	shapes := map[string]string{}
	for _, sql := range t.samples {
		t0 := time.Now()
		parsed, err := sqlparser.ParseNormalized(sql)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("parse probe: %w", err)
		}
		probe.add(spanParse, t0, t1, probe.newReq(), root)
		if _, ok := parsed.Stmt.(*sqlparser.SelectStmt); ok {
			if _, seen := shapes[parsed.Normalized]; !seen {
				shapes[parsed.Normalized] = sql
			}
		}
	}
	s := sys.Session()
	defer s.Close()
	for _, sql := range shapes {
		for i := 0; i < planRepeats; i++ {
			t0 := time.Now()
			_, err := s.Explain(sql, false)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("plan probe: %w", err)
			}
			probe.add(spanPlan, t0, t1, probe.newReq(), root)
		}
	}
	for i := 0; i < imaRepeats; i++ {
		t0 := time.Now()
		_, err := s.Exec("SELECT * FROM ima_statements")
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("ima probe: %w", err)
		}
		probe.add(spanIMARead, t0, t1, probe.newReq(), root)
	}
	bufs := append(append([]*spanBuf{}, t.bufs...), probe)
	med := func(name uint8) time.Duration { return percentile(durations(bufs, name), 50) }

	b, a := t.before, t.after
	stmts := float64(t.attempted)
	writes := float64(len(t.writes))
	gets := float64(a.db.CacheHits + a.db.CacheMisses - b.db.CacheHits - b.db.CacheMisses)
	var execBusy time.Duration
	for _, d := range durations(bufs, spanExecRead) {
		execBusy += d
	}
	for _, d := range durations(bufs, spanExecWrite) {
		execBusy += d
	}
	polls := pl.pollsIn(t, epoch)
	var peak uint64
	for _, h := range pl.heap {
		if !h.at.Before(u.start) && h.at.Before(u.end) && h.bytes > peak {
			peak = h.bytes
		}
	}

	put("sqlparser.parse_us", us(med(spanParse)), "us")
	put("optimizer.plan_us", us(med(spanPlan)), "us")
	put("engine.exec_us.read", us(med(spanExecRead)), "us")
	put("engine.exec_us.write", us(med(spanExecWrite)), "us")
	put("storage.page_gets_per_stmt", ratio(gets, stmts), "count")
	put("storage.hit_ratio", ratio(float64(a.db.CacheHits-b.db.CacheHits), gets), "ratio")
	put("storage.disk_reads_per_stmt", ratio(float64(a.db.DiskReads-b.db.DiskReads), stmts), "count")
	put("storage.evictions", float64(a.db.CacheEvictions-b.db.CacheEvictions), "count")
	put("storage.pin_waits", float64(a.db.PinWaits-b.db.PinWaits), "count")
	put("storage.wal_fsyncs_per_write", ratio(float64(a.db.WALFsyncs-b.db.WALFsyncs), writes), "count")
	put("storage.wal_bytes_per_write", ratio(float64(a.db.WALBytes-b.db.WALBytes), writes), "B")
	put("lock.waits", float64(a.lock.Waits-b.lock.Waits), "count")
	put("lock.wait_ms", float64(a.lock.WaitNanos-b.lock.WaitNanos)/1e6, "ms")
	put("engine.morsels_per_query", ratio(float64(a.db.MorselsDispatched-b.db.MorselsDispatched), float64(a.db.ParallelQueries-b.db.ParallelQueries)), "count")
	put("engine.parallel_worker_ms", float64(a.db.ParallelWorkerNanos-b.db.ParallelWorkerNanos)/1e6, "ms")
	put("engine.vacuum_reclaimed", float64(a.mvcc.VacuumReclaimed-b.mvcc.VacuumReclaimed), "count")
	put("engine.chain_len_p95", float64(a.mvcc.ChainLenP95), "count")
	put("engine.write_conflicts", float64(a.mvcc.WriteConflicts-b.mvcc.WriteConflicts), "count")
	put("monitor.ns_per_stmt", ratio(float64(a.monNanos-b.monNanos), float64(a.monStmts-b.monStmts)), "ns")
	put("monitor.share", ratio(float64(a.monNanos-b.monNanos), float64(execBusy)), "ratio")
	put("monitor.workload_dropped", float64(a.dropped-b.dropped), "count")
	put("ima.statements_read_ms", ms(med(spanIMARead)), "ms")
	put("daemon.poll_ms_p50", ms(percentile(polls, 50)), "ms")
	put("daemon.poll_ms_max", ms(percentile(polls, 100)), "ms")
	put("daemon.rows_per_poll", ratio(float64(a.daemon.RowsAppended-b.daemon.RowsAppended), float64(a.daemon.Polls-b.daemon.Polls)), "count")
	put("workloaddb.mb", float64(sys.WorkloadDB.SizeBytes())/(1<<20), "MiB")
	put("process.allocs_per_stmt", ratio(float64(a.mallocs-b.mallocs), stmts), "count")
	put("process.peak_heap_mb", float64(peak)/(1<<20), "MiB")
	put("trace.overhead", ratio(u.readQPS(), t.readQPS())-1, "ratio")
	for _, f := range tailFigures(u) {
		put(f.name, f.Value, f.Unit)
	}
	return nil
}
