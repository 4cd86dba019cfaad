package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/lock"
)

// Span names. Every span is recorded by the benchmark around one call
// into a module's public API; the program itself is not instrumented.
const (
	spanExecRead  uint8 = iota // engine: Session.Exec of a read
	spanExecWrite              // engine: Session.Exec of a write
	spanPoll                   // daemon: System.Poll
	spanProbe                  // root of the post-phase layer probes
	spanParse                  // sqlparser: ParseNormalized
	spanPlan                   // optimizer: Session.Explain
	spanIMARead                // ima: SELECT * FROM ima_statements
	spanAnalyze                // analyzer: System.Analyze
)

var spanNames = [...]string{
	spanExecRead:  "engine.exec.read",
	spanExecWrite: "engine.exec.write",
	spanPoll:      "daemon.poll",
	spanProbe:     "bench.probe",
	spanParse:     "sqlparser.parse",
	spanPlan:      "optimizer.plan",
	spanIMARead:   "ima.statements_read",
	spanAnalyze:   "analyzer.analyze",
}

// span is one timed call. Times are nanoseconds since the run's epoch;
// parent indexes the span's buffer (-1 for a root); spans of one
// request share req.
type span struct {
	start, end int64
	req        int64
	parent     int32
	name       uint8
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// spanBuf is one goroutine's span buffer; buffers are merged when the
// run ends, so recording takes no lock.
type spanBuf struct {
	epoch time.Time
	id    int64 // high bits of every request id issued from this buffer
	seq   int64
	spans []span
}

func newSpanBuf(epoch time.Time, id int64) *spanBuf {
	return &spanBuf{epoch: epoch, id: id, spans: make([]span, 0, 1<<12)}
}

// newReq returns a fresh request id.
func (b *spanBuf) newReq() int64 {
	b.seq++
	return b.id<<40 | b.seq
}

// add records a span and returns its index in the buffer.
func (b *spanBuf) add(name uint8, start, end time.Time, req int64, parent int32) int32 {
	b.spans = append(b.spans, span{
		start:  int64(start.Sub(b.epoch)),
		end:    int64(end.Sub(b.epoch)),
		req:    req,
		parent: parent,
		name:   name,
	})
	return int32(len(b.spans) - 1)
}

// durations returns the sorted durations of the named spans.
func durations(bufs []*spanBuf, name uint8) []time.Duration {
	var d []time.Duration
	for _, b := range bufs {
		for _, s := range b.spans {
			if s.name == name {
				d = append(d, s.dur())
			}
		}
	}
	return sortDurations(d)
}

// writeTrace writes every span as CSV, gzip-compressed, after a header
// line holding the run context. Parent indexes are rewritten to
// positions in the merged file.
func writeTrace(path, header string, bufs []*spanBuf) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintf(w, "# %s\nname,start_ns,end_ns,parent,req\n", header)
	var off int32
	for _, b := range bufs {
		for _, s := range b.spans {
			parent := s.parent
			if parent >= 0 {
				parent += off
			}
			fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", spanNames[s.name], s.start, s.end, parent, s.req)
		}
		off += int32(len(b.spans))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// counters samples every statistic the program exports that a
// per-layer metric is derived from.
type counters struct {
	db       engine.SystemStats
	mvcc     engine.MvccStats
	lock     lock.Stats
	monNanos time.Duration
	monStmts int64
	dropped  int64
	daemon   daemon.Stats
	mallocs  uint64 // process-wide
}

func readCounters(sys *core.System) counters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return counters{
		db:       sys.DB.Stats(),
		mvcc:     sys.DB.MvccStats(),
		lock:     sys.DB.LockStats(),
		monNanos: sys.Monitor.TotalMonitorTime(),
		monStmts: sys.Monitor.TotalStatements(),
		dropped:  sys.Monitor.WorkloadDropped(),
		daemon:   sys.Daemon.Stats(),
		mallocs:  m.Mallocs,
	}
}
