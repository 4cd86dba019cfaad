package ima

import (
	"repro/internal/engine"
	"repro/internal/sqltypes"
)

// ActionRow is one audit record of the autonomous tuning loop: a state
// transition of an applied (or rolled back) tuning action. Rows are
// append-only — every transition of an action produces a new row with
// a higher Seq — so ima_actions and the persisted ws_actions are a
// complete history of what the apply state machine did and why.
type ActionRow struct {
	Seq      int64   // monotone across all rows; the daemon's watermark
	ActionID int64   // groups the rows of one action
	Kind     string  // recommendation kind (create-index, enlarge-buffer-pool, ...)
	Target   string  // table or subsystem the action touches
	SQL      string  // statement executed (or description for non-SQL actions)
	State    string  // proposed | applying | canary | accepted | rolled-back | failed
	Baseline int64   // canary baseline tail latency, microseconds (0 before canary)
	Observed int64   // canary observed tail latency, microseconds
	DeltaPct float64 // (observed-baseline)/baseline * 100
	Samples  int64   // executions observed in the canary window
	AtUs     int64   // transition timestamp, unix microseconds
	Detail   string  // decision reason or error text
}

// Actions is the audit-trail table RegisterActions installs.
const Actions = "ima_actions"

var actionsSchema = sqltypes.NewSchema(
	sqltypes.Column{Name: "seq", Type: sqltypes.Int},
	sqltypes.Column{Name: "action_id", Type: sqltypes.Int},
	sqltypes.Column{Name: "kind", Type: sqltypes.Text},
	sqltypes.Column{Name: "target", Type: sqltypes.Text},
	sqltypes.Column{Name: "sql_text", Type: sqltypes.Text},
	sqltypes.Column{Name: "state", Type: sqltypes.Text},
	sqltypes.Column{Name: "baseline_us", Type: sqltypes.Int},
	sqltypes.Column{Name: "observed_us", Type: sqltypes.Int},
	sqltypes.Column{Name: "delta_pct", Type: sqltypes.Float},
	sqltypes.Column{Name: "samples", Type: sqltypes.Int},
	sqltypes.Column{Name: "at_us", Type: sqltypes.Int},
	sqltypes.Column{Name: "detail", Type: sqltypes.Text},
)

// RegisterActions installs the ima_actions virtual table: the audit
// trail of the analyzer's apply state machine, queryable over plain
// SQL like every other IMA table. gather returns the accumulated
// transition rows (oldest first).
func RegisterActions(db *engine.DB, gather func() []ActionRow) error {
	return db.RegisterVirtual(Actions, actionsSchema, func() []sqltypes.Row {
		ar := gather()
		rows := make([]sqltypes.Row, 0, len(ar))
		for _, r := range ar {
			rows = append(rows, sqltypes.Row{
				sqltypes.NewInt(r.Seq),
				sqltypes.NewInt(r.ActionID),
				sqltypes.NewText(r.Kind),
				sqltypes.NewText(r.Target),
				sqltypes.NewText(truncate(r.SQL, engine.MaxTextBytes)),
				sqltypes.NewText(r.State),
				sqltypes.NewInt(r.Baseline),
				sqltypes.NewInt(r.Observed),
				sqltypes.NewFloat(r.DeltaPct),
				sqltypes.NewInt(r.Samples),
				sqltypes.NewInt(r.AtUs),
				sqltypes.NewText(truncate(r.Detail, engine.MaxTextBytes)),
			})
		}
		return rows
	})
}
