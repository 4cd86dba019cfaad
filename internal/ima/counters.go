package ima

import (
	"repro/internal/engine"
	"repro/internal/monitor"
	"repro/internal/sqltypes"
)

// The IMA tables generated from Counters: one row each, one column per
// counter, in declaration order.
const (
	Statistics = "ima_statistics"
	Mvcc       = "ima_mvcc"
)

// Kind tells a cumulative counter from an instantaneous gauge.
type Kind uint8

// Counter kinds.
const (
	Cumulative Kind = iota
	Gauge
)

// Counter declares one monitored value. The declaration is all there
// is: its column in Table, the same column in the ws_* copy the storage
// daemon persists, and its /metrics series are all generated from it.
type Counter struct {
	Table  string // Statistics or Mvcc
	Column string
	Metric string // Prometheus series name
	Help   string
	Kind   Kind
	Scale  float64 // the series is the column value times Scale; 0 means 1
	Get    func(*Sample) int64
}

// Value is the counter's /metrics value in s.
func (c Counter) Value(s *Sample) float64 {
	if c.Scale == 0 {
		return float64(c.Get(s))
	}
	return float64(c.Get(s)) * c.Scale
}

// Sample is one reading of every source the counters read from.
type Sample struct {
	Stats     engine.SystemStats
	Mvcc      engine.MvccStats
	Collector *monitor.Collector
}

// ReadSample reads db's engine and MVCC counters and the collector
// counters of its monitor (all zero when db is unmonitored).
func ReadSample(db *engine.DB) *Sample {
	s := &Sample{Stats: db.Stats(), Mvcc: db.MvccStats(), Collector: &monitor.Collector{}}
	if mon := db.Monitor(); mon != nil {
		s.Collector = mon.Collector()
	}
	return s
}

// Counters is the counter registry. Within a table the order is the
// column order, which the ws_* copies keep for positional readers, so
// a new counter goes at the end of its table.
var Counters = []Counter{
	{Statistics, "current_sessions", "engine_sessions_current", "Open sessions.", Gauge, 0, func(s *Sample) int64 { return s.Stats.CurrentSessions }},
	{Statistics, "peak_sessions", "engine_sessions_peak", "Peak concurrent sessions.", Gauge, 0, func(s *Sample) int64 { return s.Stats.PeakSessions }},
	{Statistics, "statements", "engine_statements_total", "Statements executed.", Cumulative, 0, func(s *Sample) int64 { return s.Stats.Statements }},
	{Statistics, "locks_held", "engine_locks_held", "Locks currently held.", Gauge, 0, func(s *Sample) int64 { return s.Stats.LocksHeld }},
	{Statistics, "lock_waits", "engine_lock_waits_total", "Lock acquisitions that waited.", Cumulative, 0, func(s *Sample) int64 { return s.Stats.LockWaits }},
	{Statistics, "deadlocks", "engine_deadlocks_total", "Deadlocks detected.", Cumulative, 0, func(s *Sample) int64 { return s.Stats.Deadlocks }},
	{Statistics, "cache_hits", "engine_cache_hits_total", "Buffer pool hits.", Cumulative, 0, func(s *Sample) int64 { return s.Stats.CacheHits }},
	{Statistics, "cache_misses", "engine_cache_misses_total", "Buffer pool misses.", Cumulative, 0, func(s *Sample) int64 { return s.Stats.CacheMisses }},
	{Statistics, "disk_reads", "engine_disk_reads_total", "Pages read from disk.", Cumulative, 0, func(s *Sample) int64 { return s.Stats.DiskReads }},
	{Statistics, "disk_writes", "engine_disk_writes_total", "Pages written to disk.", Cumulative, 0, func(s *Sample) int64 { return s.Stats.DiskWrites }},
	{Statistics, "db_bytes", "engine_db_bytes", "Database size on disk in bytes.", Gauge, 0, func(s *Sample) int64 { return s.Stats.DBBytes }},
	{Statistics, "poll_errors", "daemon_poll_errors_total", "Polls that returned a transient error.", Cumulative, 0, func(s *Sample) int64 { return s.Collector.PollErrors.Load() }},
	{Statistics, "retries", "daemon_retries_total", "Backoff retry polls executed.", Cumulative, 0, func(s *Sample) int64 { return s.Collector.Retries.Load() }},
	{Statistics, "carryover_depth", "daemon_carryover_depth", "Drained entries awaiting re-insert.", Gauge, 0, func(s *Sample) int64 { return s.Collector.CarryoverDepth.Load() }},
	{Statistics, "alert_errors", "daemon_alert_errors_total", "Alert evaluations that failed.", Cumulative, 0, func(s *Sample) int64 { return s.Collector.AlertErrors.Load() }},
	{Statistics, "cache_evictions", "engine_cache_evictions_total", "Buffer pool frames evicted to make room.", Cumulative, 0, func(s *Sample) int64 { return s.Stats.CacheEvictions }},
	{Statistics, "cache_resident", "engine_cache_resident", "Pages currently cached in the buffer pool.", Gauge, 0, func(s *Sample) int64 { return s.Stats.CacheResident }},
	{Statistics, "pin_waits", "engine_cache_pin_waits_total", "Backpressure waits on a fully pinned pool shard.", Cumulative, 0, func(s *Sample) int64 { return s.Stats.PinWaits }},
	{Statistics, "wal_bytes", "engine_wal_bytes_total", "Bytes appended to the write-ahead log.", Cumulative, 0, func(s *Sample) int64 { return s.Stats.WALBytes }},
	{Statistics, "wal_fsyncs", "engine_wal_fsyncs_total", "WAL fsyncs issued (group commit amortizes these).", Cumulative, 0, func(s *Sample) int64 { return s.Stats.WALFsyncs }},
	{Statistics, "redo_records", "engine_redo_records", "WAL records replayed (redo + undo) by crash recovery at the last open.", Gauge, 0, func(s *Sample) int64 { return s.Stats.RedoRecords }},
	{Statistics, "redo_nanos", "engine_redo_nanos", "Wallclock nanoseconds of the last crash-recovery pass.", Gauge, 0, func(s *Sample) int64 { return s.Stats.RedoNanos }},
	{Statistics, "apply_failures", "engine_tuning_apply_failures_total", "Recommendations the analyzer could not execute.", Cumulative, 0, func(s *Sample) int64 { return s.Collector.ApplyFailures.Load() }},
	{Statistics, "parallel_queries", "engine_parallel_queries_total", "Statements that ran a morsel-parallel plan subtree.", Cumulative, 0, func(s *Sample) int64 { return s.Stats.ParallelQueries }},
	{Statistics, "morsels_dispatched", "engine_parallel_morsels_total", "Heap-page morsels dispatched to parallel scan workers.", Cumulative, 0, func(s *Sample) int64 { return s.Stats.MorselsDispatched }},
	{Statistics, "parallel_worker_nanos", "engine_parallel_worker_seconds_total", "Summed wall time of parallel scan workers in seconds.", Cumulative, 1e-9, func(s *Sample) int64 { return s.Stats.ParallelWorkerNanos }},

	{Mvcc, "txn_begins", "engine_mvcc_txn_begins_total", "MVCC transactions begun.", Cumulative, 0, func(s *Sample) int64 { return s.Mvcc.TxnBegins }},
	{Mvcc, "txn_commits", "engine_mvcc_txn_commits_total", "MVCC transactions committed.", Cumulative, 0, func(s *Sample) int64 { return s.Mvcc.TxnCommits }},
	{Mvcc, "txn_aborts", "engine_mvcc_txn_aborts_total", "MVCC transactions aborted (rollbacks, errors, conflicts).", Cumulative, 0, func(s *Sample) int64 { return s.Mvcc.TxnAborts }},
	{Mvcc, "write_conflicts", "engine_mvcc_write_conflicts_total", "First-updater-wins write conflicts raised.", Cumulative, 0, func(s *Sample) int64 { return s.Mvcc.WriteConflicts }},
	{Mvcc, "inflight_txns", "engine_mvcc_inflight_txns", "MVCC transactions currently open.", Gauge, 0, func(s *Sample) int64 { return s.Mvcc.InflightTxns }},
	{Mvcc, "active_snapshots", "engine_mvcc_active_snapshots", "Snapshots currently pinned by sessions.", Gauge, 0, func(s *Sample) int64 { return s.Mvcc.ActiveSnapshots }},
	{Mvcc, "aborted_ids", "engine_mvcc_aborted_ids", "Aborted transaction ids not yet retired by vacuum.", Gauge, 0, func(s *Sample) int64 { return s.Mvcc.AbortedIDs }},
	{Mvcc, "oldest_snapshot_ns", "engine_mvcc_oldest_snapshot_ns", "Age of the oldest active snapshot in nanoseconds (vacuum horizon lag).", Gauge, 0, func(s *Sample) int64 { return s.Mvcc.OldestSnapshotNanos }},
	{Mvcc, "vacuum_runs", "engine_mvcc_vacuum_runs_total", "Vacuum passes completed.", Cumulative, 0, func(s *Sample) int64 { return s.Mvcc.VacuumRuns }},
	{Mvcc, "vacuum_reclaimed", "engine_mvcc_vacuum_reclaimed_total", "Dead row versions reclaimed by vacuum.", Cumulative, 0, func(s *Sample) int64 { return s.Mvcc.VacuumReclaimed }},
	{Mvcc, "vacuum_cleared", "engine_mvcc_vacuum_cleared_total", "Aborted xmax stamps cleared by vacuum.", Cumulative, 0, func(s *Sample) int64 { return s.Mvcc.VacuumCleared }},
	{Mvcc, "retired_ids", "engine_mvcc_retired_ids_total", "Aborted transaction ids retired after vacuum proved them unreferenced.", Cumulative, 0, func(s *Sample) int64 { return s.Mvcc.RetiredIDs }},
	{Mvcc, "chain_len_p95", "engine_mvcc_chain_len_p95", "p95 surviving version-chain length at the last vacuum pass.", Gauge, 0, func(s *Sample) int64 { return s.Mvcc.ChainLenP95 }},
}

// counterTable generates the IMA table holding the counters declared
// for name: one column per counter, one row per read.
func counterTable(name string) table {
	var cs []Counter
	var cols []sqltypes.Column
	for _, c := range Counters {
		if c.Table == name {
			cs = append(cs, c)
			cols = append(cols, sqltypes.Column{Name: c.Column, Type: sqltypes.Int})
		}
	}
	return table{
		name:   name,
		schema: sqltypes.NewSchema(cols...),
		rows: func(db *engine.DB, _ *monitor.Monitor) []sqltypes.Row {
			s := ReadSample(db)
			row := make(sqltypes.Row, len(cs))
			for i, c := range cs {
				row[i] = sqltypes.NewInt(c.Get(s))
			}
			return []sqltypes.Row{row}
		},
	}
}
