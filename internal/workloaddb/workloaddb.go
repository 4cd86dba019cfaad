// Package workloaddb defines the persistent workload database: a
// native database (in the same engine) holding timestamped copies of
// the IMA tables, appended by the storage daemon. Because it is an
// ordinary database, "handling the collected data is most simple and
// can be done with standard SQL" — the analyzer and the alerting rules
// run plain queries against it.
package workloaddb

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/ima"
	"repro/internal/sqltypes"
)

// Table names in the workload database. Every table carries a ts_us
// column: the poll timestamp in unix microseconds, enabling the trend
// analysis the paper collects data for.
const (
	Statements = "ws_statements"
	Workload   = "ws_workload"
	References = "ws_references"
	Tables     = "ws_tables"
	Attributes = "ws_attributes"
	Indexes    = "ws_indexes"
	Statistics = "ws_statistics"
	Latency    = "ws_latency"
	Actions    = "ws_actions"
	Waits      = "ws_waits"
	Mvcc       = "ws_mvcc"
)

// StatementTextMax bounds persisted statement text in bytes. It
// matches the engine's MaxTextBytes row limit, to which the IMA tables
// truncate statement text on a rune boundary.
const StatementTextMax = 512

// Table maps one workload table onto the IMA table it is a timestamped
// copy of: the columns of a ws_* table are ts_us followed by the
// columns of its IMA table, or by the listed subset of them.
type Table struct {
	Name    string
	IMA     string
	Columns []string // projection onto the IMA columns; nil keeps all
}

// AllTables lists every workload table. Counter columns (ws_latency
// bucket counts, ws_waits nanoseconds, the cumulative registry
// counters) keep counter semantics: the analyzer differences successive
// polls. ws_actions' seq is the daemon's append watermark.
var AllTables = []Table{
	{Name: Statements, IMA: "ima_statements"},
	{Name: Workload, IMA: "ima_workload"},
	{Name: References, IMA: "ima_references"},
	{Name: Tables, IMA: "ima_tables"},
	{Name: Attributes, IMA: "ima_attributes"},
	{Name: Indexes, IMA: "ima_indexes"},
	{Name: Statistics, IMA: ima.Statistics},
	{Name: Latency, IMA: "ima_latency", Columns: []string{"scope", "bucket", "lo_ns", "hi_ns", "bucket_count"}},
	{Name: Actions, IMA: ima.Actions},
	{Name: Waits, IMA: "ima_waits"},
	{Name: Mvcc, IMA: ima.Mvcc},
}

// Lookup returns the workload table called name.
func Lookup(name string) (Table, bool) {
	for _, t := range AllTables {
		if t.Name == name {
			return t, true
		}
	}
	return Table{}, false
}

// Project returns, for each column of t after ts_us, its index in the
// IMA schema.
func (t Table) Project(schema sqltypes.Schema) ([]int, error) {
	if t.Columns == nil {
		idx := make([]int, schema.Len())
		for i := range idx {
			idx[i] = i
		}
		return idx, nil
	}
	idx := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		if idx[i] = schema.ColIndex(c); idx[i] < 0 {
			return nil, fmt.Errorf("workloaddb: %s has no column %s", t.IMA, c)
		}
	}
	return idx, nil
}

// EnsureSchema creates the workload tables if they do not exist, each
// generated from the declared schema of its IMA table.
func EnsureSchema(db *engine.DB) error {
	s := db.NewSession()
	defer s.Close()
	for _, t := range AllTables {
		schema, ok := ima.Schema(t.IMA)
		if !ok {
			return fmt.Errorf("workloaddb: %s: unknown IMA table %s", t.Name, t.IMA)
		}
		idx, err := t.Project(schema)
		if err != nil {
			return err
		}
		var b strings.Builder
		b.WriteString("CREATE TABLE IF NOT EXISTS " + t.Name + " (ts_us BIGINT")
		for _, i := range idx {
			c := schema.Columns[i]
			b.WriteString(", " + c.Name + " " + sqlType[c.Type])
		}
		b.WriteString(")")
		if _, err := s.Exec(b.String()); err != nil {
			return fmt.Errorf("workloaddb: %w", err)
		}
	}
	return nil
}

// sqlType is the column type a ws_* table declares for an IMA type.
var sqlType = map[sqltypes.Type]string{sqltypes.Int: "BIGINT", sqltypes.Float: "FLOAT", sqltypes.Text: "VARCHAR"}

// Prune deletes rows older than the retention window from every table.
// It returns the number of rows removed.
func Prune(db *engine.DB, retention time.Duration, now time.Time) (int64, error) {
	cutoff := now.Add(-retention).UnixMicro()
	s := db.NewSession()
	defer s.Close()
	var removed int64
	for _, t := range AllTables {
		res, err := s.Exec(fmt.Sprintf("DELETE FROM %s WHERE ts_us < %d", t.Name, cutoff))
		if err != nil {
			return removed, fmt.Errorf("workloaddb: prune %s: %w", t.Name, err)
		}
		removed += res.RowsAffected
	}
	return removed, nil
}

// GrowthModel captures the paper's §V-A capacity computation: at a
// given statement logging rate the workload DB grows linearly and is
// capped by the retention window.
type GrowthModel struct {
	StatementsPerSecond float64
	BytesPerWorkloadRow float64
	Retention           time.Duration
}

// BytesPerHour returns the modelled growth rate.
func (g GrowthModel) BytesPerHour() float64 {
	return g.StatementsPerSecond * g.BytesPerWorkloadRow * 3600
}

// CapBytes returns the steady-state size after retention pruning.
func (g GrowthModel) CapBytes() float64 {
	return g.BytesPerHour() * g.Retention.Hours()
}
