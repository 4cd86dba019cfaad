// Package ima reproduces the Ingres Management Architecture: every
// class of in-memory monitoring objects is registered as a virtual
// table in the database, so the monitor's ring buffers become readable
// over plain SQL — no extra protocol, no disk access (the data lives
// only in main memory until the storage daemon persists it).
//
// The table set mirrors the paper's Figure 3:
//
//	ima_statements  — unique statements keyed by text hash
//	ima_workload    — execution history with estimated vs. actual costs
//	ima_references  — statement → object (table/attribute/index) usage
//	ima_tables      — per-table frequency and physical state
//	ima_attributes  — per-attribute frequency and histogram presence
//	ima_indexes     — per-index frequency
//	ima_statistics  — system-wide statistics (sessions, locks, cache,
//	                  WAL, parallelism) and the collector's health
//
// The telemetry plane adds three more:
//
//	ima_latency     — log-bucketed latency histograms (global wallclock
//	                  and optimize-time, plus per-statement wallclock)
//	ima_spans       — per-operator spans of recent EXPLAIN ANALYZE
//	                  traces, estimated vs. actual
//	ima_health      — self-observability counters of the monitor and
//	                  the storage daemon (see RegisterHealth)
//
// The adaptive two-phase layer adds two more:
//
//	ima_flags       — the phase-2 flag set: which statements are under
//	                  deep wait attribution, why, and since when
//	ima_waits       — per-flagged-statement wait-state breakdown
//	                  (exec / lock / io / fsync / pinwait vs. wall)
//
// The MVCC layer adds one more:
//
//	ima_mvcc        — snapshot-isolation health: txn begin/commit/abort
//	                  counters, write conflicts, oldest snapshot age,
//	                  vacuum reclaim progress and chain-length p95
//
// ima_statistics and ima_mvcc are generated from the counter registry
// (counters.go), which also backs their /metrics series. Every table
// here, and ima_actions, is the schema of a ws_* table the storage
// daemon persists.
package ima

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/monitor"
	"repro/internal/sqltypes"
)

// Register installs the IMA virtual tables on db, reading from mon.
// ima_statistics and ima_mvcc are generated from Counters.
func Register(db *engine.DB, mon *monitor.Monitor) error {
	if mon == nil {
		return fmt.Errorf("ima: monitor is required")
	}
	for _, t := range tables() {
		if err := db.RegisterVirtual(t.name, t.schema, func() []sqltypes.Row { return t.rows(db, mon) }); err != nil {
			return err
		}
	}
	return nil
}

// Schema returns the declared schema of an IMA table, ima_actions
// included. The workload database derives its ws_* tables from it.
func Schema(name string) (sqltypes.Schema, bool) {
	if name == Actions {
		return actionsSchema, true
	}
	for _, t := range tables() {
		if t.name == name {
			return t.schema, true
		}
	}
	return sqltypes.Schema{}, false
}

// table declares one IMA virtual table: its schema and how its rows
// are read from the engine and the monitor.
type table struct {
	name   string
	schema sqltypes.Schema
	rows   func(db *engine.DB, mon *monitor.Monitor) []sqltypes.Row
}

// tables declares the IMA tables Register installs. It is a function,
// not a variable, so the counter tables follow Counters as it is at the
// time of the call.
func tables() []table {
	return []table{
		{
			name: "ima_statements",
			schema: sqltypes.NewSchema(
				sqltypes.Column{Name: "hash", Type: sqltypes.Int},
				sqltypes.Column{Name: "query_text", Type: sqltypes.Text},
				sqltypes.Column{Name: "kind", Type: sqltypes.Text},
				sqltypes.Column{Name: "frequency", Type: sqltypes.Int},
				sqltypes.Column{Name: "first_seen_us", Type: sqltypes.Int},
				sqltypes.Column{Name: "last_seen_us", Type: sqltypes.Int},
			),
			rows: func(db *engine.DB, mon *monitor.Monitor) []sqltypes.Row {
				stmts := mon.SnapshotStatements()
				rows := make([]sqltypes.Row, 0, len(stmts))
				for _, s := range stmts {
					rows = append(rows, sqltypes.Row{
						sqltypes.NewInt(int64(s.Hash)),
						sqltypes.NewText(truncate(s.Text, engine.MaxTextBytes)),
						sqltypes.NewText(s.Kind),
						sqltypes.NewInt(s.Frequency),
						sqltypes.NewInt(s.FirstSeen.UnixMicro()),
						sqltypes.NewInt(s.LastSeen.UnixMicro()),
					})
				}
				return rows
			},
		},
		{
			name: "ima_workload",
			schema: sqltypes.NewSchema(
				sqltypes.Column{Name: "hash", Type: sqltypes.Int},
				sqltypes.Column{Name: "start_us", Type: sqltypes.Int},
				sqltypes.Column{Name: "wall_us", Type: sqltypes.Int},
				sqltypes.Column{Name: "opt_us", Type: sqltypes.Int},
				sqltypes.Column{Name: "exec_cpu", Type: sqltypes.Int},
				sqltypes.Column{Name: "exec_io", Type: sqltypes.Int},
				sqltypes.Column{Name: "est_cpu", Type: sqltypes.Float},
				sqltypes.Column{Name: "est_io", Type: sqltypes.Float},
				sqltypes.Column{Name: "est_rows", Type: sqltypes.Float},
				sqltypes.Column{Name: "rows", Type: sqltypes.Int},
				sqltypes.Column{Name: "mon_ns", Type: sqltypes.Int},
				sqltypes.Column{Name: "error", Type: sqltypes.Int},
			),
			rows: func(db *engine.DB, mon *monitor.Monitor) []sqltypes.Row {
				work := mon.SnapshotWorkload()
				rows := make([]sqltypes.Row, 0, len(work))
				for _, w := range work {
					rows = append(rows, WorkloadRow(w))
				}
				return rows
			},
		},
		{
			name: "ima_references",
			schema: sqltypes.NewSchema(
				sqltypes.Column{Name: "hash", Type: sqltypes.Int},
				sqltypes.Column{Name: "obj_type", Type: sqltypes.Text},
				sqltypes.Column{Name: "obj_name", Type: sqltypes.Text},
				sqltypes.Column{Name: "table_name", Type: sqltypes.Text},
			),
			rows: func(db *engine.DB, mon *monitor.Monitor) []sqltypes.Row {
				refs := mon.SnapshotReferences()
				rows := make([]sqltypes.Row, 0, len(refs))
				for _, r := range refs {
					rows = append(rows, sqltypes.Row{
						sqltypes.NewInt(int64(r.Hash)),
						sqltypes.NewText(r.Type.String()),
						sqltypes.NewText(r.Name),
						sqltypes.NewText(r.Table),
					})
				}
				return rows
			},
		},
		{
			name: "ima_tables",
			schema: sqltypes.NewSchema(
				sqltypes.Column{Name: "table_name", Type: sqltypes.Text},
				sqltypes.Column{Name: "frequency", Type: sqltypes.Int},
				sqltypes.Column{Name: "structure", Type: sqltypes.Text},
				sqltypes.Column{Name: "data_pages", Type: sqltypes.Int},
				sqltypes.Column{Name: "overflow_pages", Type: sqltypes.Int},
				sqltypes.Column{Name: "row_count", Type: sqltypes.Int},
			),
			rows: func(db *engine.DB, mon *monitor.Monitor) []sqltypes.Row {
				tableFreq, _, _ := mon.SnapshotFrequencies()
				var rows []sqltypes.Row
				for _, t := range db.Catalog().Tables() {
					ts := db.TableState(t.Name)
					rows = append(rows, sqltypes.Row{
						sqltypes.NewText(strings.ToLower(t.Name)),
						sqltypes.NewInt(tableFreq[strings.ToLower(t.Name)]),
						sqltypes.NewText(string(t.Structure)),
						sqltypes.NewInt(int64(ts.Pages)),
						sqltypes.NewInt(int64(ts.OverflowPages)),
						sqltypes.NewInt(ts.Rows),
					})
				}
				return rows
			},
		},
		{
			name: "ima_attributes",
			schema: sqltypes.NewSchema(
				sqltypes.Column{Name: "attr_name", Type: sqltypes.Text},
				sqltypes.Column{Name: "table_name", Type: sqltypes.Text},
				sqltypes.Column{Name: "frequency", Type: sqltypes.Int},
				sqltypes.Column{Name: "has_histogram", Type: sqltypes.Int},
			),
			rows: func(db *engine.DB, mon *monitor.Monitor) []sqltypes.Row {
				_, attrFreq, _ := mon.SnapshotFrequencies()
				var rows []sqltypes.Row
				for _, t := range db.Catalog().Tables() {
					tn := strings.ToLower(t.Name)
					for _, c := range t.Schema.Columns {
						attr := tn + "." + strings.ToLower(c.Name)
						hasHist := int64(0)
						if db.Catalog().Histogram(t.Name, c.Name) != nil {
							hasHist = 1
						}
						rows = append(rows, sqltypes.Row{
							sqltypes.NewText(attr),
							sqltypes.NewText(tn),
							sqltypes.NewInt(attrFreq[attr]),
							sqltypes.NewInt(hasHist),
						})
					}
				}
				return rows
			},
		},
		{
			name: "ima_indexes",
			schema: sqltypes.NewSchema(
				sqltypes.Column{Name: "index_name", Type: sqltypes.Text},
				sqltypes.Column{Name: "table_name", Type: sqltypes.Text},
				sqltypes.Column{Name: "frequency", Type: sqltypes.Int},
				sqltypes.Column{Name: "is_virtual", Type: sqltypes.Int},
			),
			rows: func(db *engine.DB, mon *monitor.Monitor) []sqltypes.Row {
				_, _, indexFreq := mon.SnapshotFrequencies()
				var rows []sqltypes.Row
				for _, ix := range db.Catalog().Indexes() {
					rows = append(rows, sqltypes.Row{
						sqltypes.NewText(strings.ToLower(ix.Name)),
						sqltypes.NewText(strings.ToLower(ix.Table)),
						sqltypes.NewInt(indexFreq[strings.ToLower(ix.Name)]),
						sqltypes.NewBool(ix.Virtual),
					})
				}
				// Primary structures show up under "<table>.primary".
				for name, freq := range indexFreq {
					if strings.HasSuffix(name, ".primary") {
						rows = append(rows, sqltypes.Row{
							sqltypes.NewText(name),
							sqltypes.NewText(strings.TrimSuffix(name, ".primary")),
							sqltypes.NewInt(freq),
							sqltypes.NewInt(0),
						})
					}
				}
				// Map iteration order is random; every read returns the
				// rows sorted by index name.
				sort.Slice(rows, func(i, j int) bool { return rows[i][0].S < rows[j][0].S })
				return rows
			},
		},
		counterTable(Statistics),
		{
			name: "ima_latency",
			schema: sqltypes.NewSchema(
				sqltypes.Column{Name: "scope", Type: sqltypes.Text}, // wall | opt | stmt
				sqltypes.Column{Name: "hash", Type: sqltypes.Int},   // 0 for global scopes
				sqltypes.Column{Name: "bucket", Type: sqltypes.Int},
				sqltypes.Column{Name: "lo_ns", Type: sqltypes.Int},
				sqltypes.Column{Name: "hi_ns", Type: sqltypes.Int},
				// Not "count": that collides with the COUNT() aggregate
				// in the SQL grammar.
				sqltypes.Column{Name: "bucket_count", Type: sqltypes.Int},
			),
			rows: func(db *engine.DB, mon *monitor.Monitor) []sqltypes.Row {
				var rows []sqltypes.Row
				wall, opt := mon.SnapshotLatency()
				rows = appendLatencyRows(rows, "wall", 0, &wall)
				rows = appendLatencyRows(rows, "opt", 0, &opt)
				for _, s := range mon.SnapshotStatements() {
					lat := s.Lat
					rows = appendLatencyRows(rows, "stmt", s.Hash, &lat)
				}
				return rows
			},
		},
		{
			name: "ima_spans",
			schema: sqltypes.NewSchema(
				sqltypes.Column{Name: "trace_seq", Type: sqltypes.Int},
				sqltypes.Column{Name: "hash", Type: sqltypes.Int},
				sqltypes.Column{Name: "start_us", Type: sqltypes.Int},
				sqltypes.Column{Name: "wall_us", Type: sqltypes.Int},
				sqltypes.Column{Name: "op", Type: sqltypes.Text},
				sqltypes.Column{Name: "detail", Type: sqltypes.Text},
				sqltypes.Column{Name: "depth", Type: sqltypes.Int},
				sqltypes.Column{Name: "est_rows", Type: sqltypes.Float},
				sqltypes.Column{Name: "rows", Type: sqltypes.Int},
				sqltypes.Column{Name: "span_ns", Type: sqltypes.Int},
				sqltypes.Column{Name: "self_ns", Type: sqltypes.Int},
				sqltypes.Column{Name: "calls", Type: sqltypes.Int},
			),
			rows: func(db *engine.DB, mon *monitor.Monitor) []sqltypes.Row {
				var rows []sqltypes.Row
				for _, t := range mon.SnapshotTraces() {
					for _, sp := range t.Spans {
						rows = append(rows, sqltypes.Row{
							sqltypes.NewInt(int64(t.Seq)),
							sqltypes.NewInt(int64(t.Hash)),
							sqltypes.NewInt(t.Start.UnixMicro()),
							sqltypes.NewInt(t.Wall.Microseconds()),
							sqltypes.NewText(sp.Op),
							sqltypes.NewText(truncate(sp.Detail, engine.MaxTextBytes)),
							sqltypes.NewInt(int64(sp.Depth)),
							sqltypes.NewFloat(sp.EstRows),
							sqltypes.NewInt(sp.Rows),
							sqltypes.NewInt(sp.Nanos),
							sqltypes.NewInt(sp.SelfNanos),
							sqltypes.NewInt(sp.Calls),
						})
					}
				}
				return rows
			},
		},
		{
			name: "ima_flags",
			schema: sqltypes.NewSchema(
				sqltypes.Column{Name: "hash", Type: sqltypes.Int},
				sqltypes.Column{Name: "query_text", Type: sqltypes.Text},
				sqltypes.Column{Name: "reason", Type: sqltypes.Text},
				sqltypes.Column{Name: "manual", Type: sqltypes.Int},
				sqltypes.Column{Name: "since_us", Type: sqltypes.Int},
				sqltypes.Column{Name: "age_us", Type: sqltypes.Int},
				sqltypes.Column{Name: "expires_us", Type: sqltypes.Int}, // 0 = never
				sqltypes.Column{Name: "samples", Type: sqltypes.Int},
			),
			rows: func(db *engine.DB, mon *monitor.Monitor) []sqltypes.Row {
				now := time.Now()
				flags := mon.SnapshotFlags()
				rows := make([]sqltypes.Row, 0, len(flags))
				for _, f := range flags {
					expires := int64(0)
					if !f.Expires.IsZero() {
						expires = f.Expires.UnixMicro()
					}
					rows = append(rows, sqltypes.Row{
						sqltypes.NewInt(int64(f.Hash)),
						sqltypes.NewText(truncate(f.Text, engine.MaxTextBytes)),
						sqltypes.NewText(f.Reason),
						sqltypes.NewBool(f.Manual),
						sqltypes.NewInt(f.Since.UnixMicro()),
						sqltypes.NewInt(now.Sub(f.Since).Microseconds()),
						sqltypes.NewInt(expires),
						sqltypes.NewInt(f.Samples),
					})
				}
				return rows
			},
		},
		counterTable(Mvcc),
		{
			name: "ima_waits",
			schema: sqltypes.NewSchema(
				sqltypes.Column{Name: "hash", Type: sqltypes.Int},
				sqltypes.Column{Name: "query_text", Type: sqltypes.Text},
				sqltypes.Column{Name: "reason", Type: sqltypes.Text},
				sqltypes.Column{Name: "samples", Type: sqltypes.Int},
				sqltypes.Column{Name: "wall_ns", Type: sqltypes.Int},
				sqltypes.Column{Name: "exec_ns", Type: sqltypes.Int},
				sqltypes.Column{Name: "lock_ns", Type: sqltypes.Int},
				sqltypes.Column{Name: "io_ns", Type: sqltypes.Int},
				sqltypes.Column{Name: "fsync_ns", Type: sqltypes.Int},
				sqltypes.Column{Name: "pinwait_ns", Type: sqltypes.Int},
			),
			rows: func(db *engine.DB, mon *monitor.Monitor) []sqltypes.Row {
				flags := mon.SnapshotFlags()
				rows := make([]sqltypes.Row, 0, len(flags))
				for _, f := range flags {
					rows = append(rows, sqltypes.Row{
						sqltypes.NewInt(int64(f.Hash)),
						sqltypes.NewText(truncate(f.Text, engine.MaxTextBytes)),
						sqltypes.NewText(f.Reason),
						sqltypes.NewInt(f.Samples),
						sqltypes.NewInt(f.Waits.WallNs),
						sqltypes.NewInt(f.Waits.ExecNs),
						sqltypes.NewInt(f.Waits.LockNs),
						sqltypes.NewInt(f.Waits.IONs),
						sqltypes.NewInt(f.Waits.FsyncNs),
						sqltypes.NewInt(f.Waits.PinWaitNs),
					})
				}
				return rows
			},
		},
	}
}

// appendLatencyRows emits one row per non-empty histogram bucket.
func appendLatencyRows(rows []sqltypes.Row, scope string, hash uint64, c *monitor.LatencyCounts) []sqltypes.Row {
	for b, n := range c {
		if n == 0 {
			continue
		}
		lo, hi := monitor.LatencyBucketBounds(b)
		rows = append(rows, sqltypes.Row{
			sqltypes.NewText(scope),
			sqltypes.NewInt(int64(hash)),
			sqltypes.NewInt(int64(b)),
			sqltypes.NewInt(int64(lo)),
			sqltypes.NewInt(int64(hi)),
			sqltypes.NewInt(n),
		})
	}
	return rows
}

// HealthMetric is one row of the ima_health virtual table: a named
// self-observability counter of a monitoring component.
type HealthMetric struct {
	Component string // "monitor", "daemon", ...
	Metric    string
	Value     float64
}

// MonitorHealth returns the monitor's own counters in ima_health form;
// callers without a storage daemon can register it as the whole gather
// function.
func MonitorHealth(mon *monitor.Monitor) []HealthMetric {
	return []HealthMetric{
		{"monitor", "statements_total", float64(mon.TotalStatements())},
		{"monitor", "sensor_seconds_total", mon.TotalMonitorTime().Seconds()},
		{"monitor", "distinct_statements", float64(mon.StatementCount())},
		{"monitor", "workload_depth", float64(mon.WorkloadDepth())},
		{"monitor", "workload_dropped_total", float64(mon.WorkloadDropped())},
		{"monitor", "traces_buffered", float64(mon.TraceCount())},
		{"monitor", "flagged_statements", float64(mon.FlagCount())},
		{"monitor", "phase2_seconds_total", mon.Phase2Overhead().Seconds()},
	}
}

// RegisterHealth installs the ima_health virtual table. gather is
// called per query; core wires it to the telemetry registry so SQL and
// /metrics expose the same counters (monitor, engine and daemon).
func RegisterHealth(db *engine.DB, gather func() []HealthMetric) error {
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "component", Type: sqltypes.Text},
		sqltypes.Column{Name: "metric", Type: sqltypes.Text},
		sqltypes.Column{Name: "value", Type: sqltypes.Float},
	)
	return db.RegisterVirtual("ima_health", schema, func() []sqltypes.Row {
		hm := gather()
		rows := make([]sqltypes.Row, 0, len(hm))
		for _, m := range hm {
			rows = append(rows, sqltypes.Row{
				sqltypes.NewText(m.Component),
				sqltypes.NewText(m.Metric),
				sqltypes.NewFloat(m.Value),
			})
		}
		return rows
	})
}

// WorkloadRow converts a workload entry to its ima_workload row. The
// storage daemon uses it when it drains the monitor directly (the
// in-core variant of data collection the paper describes as the next
// step in §IV-B).
func WorkloadRow(w monitor.WorkloadEntry) sqltypes.Row {
	return sqltypes.Row{
		sqltypes.NewInt(int64(w.Hash)),
		sqltypes.NewInt(w.Start.UnixMicro()),
		sqltypes.NewInt(w.Wall.Microseconds()),
		sqltypes.NewInt(w.OptTime.Microseconds()),
		sqltypes.NewInt(w.ExecCPU),
		sqltypes.NewInt(w.ExecIO),
		sqltypes.NewFloat(w.EstCPU),
		sqltypes.NewFloat(w.EstIO),
		sqltypes.NewFloat(w.EstRows),
		sqltypes.NewInt(w.Rows),
		sqltypes.NewInt(w.MonNanos),
		sqltypes.NewBool(w.Err),
	}
}

// truncate bounds statement text without splitting a multi-byte rune.
func truncate(s string, n int) string { return sqltypes.TruncateUTF8(s, n) }
