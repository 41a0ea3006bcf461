package viewmgr

import (
	"fmt"
	"sort"

	"whips/internal/expr"
	"whips/internal/msg"
	"whips/internal/obs"
	"whips/internal/relation"
)

// SelfMaintaining is a complete view manager that keeps auxiliary relations
// (expr.AnalyzeSelfMaint) instead of full base replicas or source queries:
// each auxiliary holds only the columns and rows its view occurrence can
// need, is maintained incrementally from the update stream itself, and the
// view delta is computed entirely over auxiliary state — zero messages to
// the sources on the covered path, so freshness is independent of source
// latency and availability.
//
// With Config.MaxAuxRows set, an auxiliary growing past the bound is
// dropped (the manager degrades that occurrence); the next update then
// repairs it with a bounded source query — the auxiliary's own definition
// evaluated as-of the pre-update state — before the action list is emitted.
// The emitted stream is identical either way: one Complete-level list per
// update, byte-for-byte the stream CompleteQuery produces.
type SelfMaintaining struct {
	updateLoop
	plan *expr.SelfMaintPlan
	// aux maps auxiliary name to its maintained contents; a nil entry is a
	// degraded auxiliary awaiting repair.
	aux     map[string]*relation.Relation
	auxDefs map[string]expr.AuxRelation
	// localDeltas counts updates answered purely from auxiliary state —
	// the zero-source-message path.
	localDeltas *obs.Counter
	// auxBytes estimates the resident auxiliary footprint.
	auxBytes *obs.Gauge
}

// NewSelfMaintaining analyzes cfg.Expr and seeds the auxiliary relations
// from init (the base database at state 0).
func NewSelfMaintaining(cfg Config, init expr.Database) (*SelfMaintaining, error) {
	if cfg.SharedDeltas {
		return nil, fmt.Errorf("viewmgr: %s: self-maintenance is incompatible with shared-deltas mode (the DAG already computes per-view deltas upstream)", cfg.View)
	}
	plan, err := expr.AnalyzeSelfMaint(cfg.Expr)
	if err != nil {
		return nil, fmt.Errorf("viewmgr: %s: %w", cfg.View, err)
	}
	reg := cfg.Obs.Reg()
	m := &SelfMaintaining{
		updateLoop:  newUpdateLoop(cfg),
		plan:        plan,
		aux:         make(map[string]*relation.Relation, len(plan.Aux)),
		auxDefs:     make(map[string]expr.AuxRelation, len(plan.Aux)),
		localDeltas: reg.Counter("vm_local_deltas_total", "view", string(cfg.View)),
		auxBytes:    reg.Gauge("vm_aux_bytes", "view", string(cfg.View)),
	}
	m.need, m.delta = m.repairs, m.advance
	for _, a := range plan.Aux {
		m.auxDefs[a.Name] = a
		r, err := expr.Eval(a.Expr, init)
		if err != nil {
			return nil, fmt.Errorf("viewmgr: %s: seeding auxiliary %s: %w", cfg.View, a.Name, err)
		}
		m.aux[a.Name] = r
	}
	m.enforceBound()
	return m, nil
}

// Relation implements expr.Database over the auxiliary state; a degraded
// auxiliary is an error, which the update loop prevents by repairing first.
func (m *SelfMaintaining) Relation(name string) (*relation.Relation, error) {
	r, ok := m.aux[name]
	if !ok || r == nil {
		return nil, fmt.Errorf("viewmgr: auxiliary relation %q unavailable", name)
	}
	return r, nil
}

// degraded returns the names of dropped auxiliaries, sorted for determinism.
func (m *SelfMaintaining) degraded() []string {
	var out []string
	for name, r := range m.aux {
		if r == nil {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// repairs is the bounded fallback: one repair query per degraded auxiliary,
// each the auxiliary's own (selection/projection-narrowed) definition —
// read, like every head round, as of the state just before the head
// update, so the repaired copies line up exactly with the healthy ones.
func (m *SelfMaintaining) repairs() []sourceQuery {
	var qs []sourceQuery
	for _, name := range m.degraded() {
		qs = append(qs, sourceQuery{key: name, expr: m.auxDefs[name].Expr})
	}
	return qs
}

// advance installs the head round's repaired auxiliaries, then processes u
// entirely locally: translate its base writes into auxiliary writes,
// delta-evaluate the rewritten view over the auxiliary pre-state, then
// advance the auxiliaries and re-check the bound — a repaired auxiliary
// still over it degrades again at once, so coverage can flip in both
// directions mid-stream. The sequential per-occurrence writes reproduce
// the join delta rule exactly (see expr.SelfMaintPlan.AuxWrites), so the
// delta matches what a replica- or query-based complete manager computes
// for the same update.
func (m *SelfMaintaining) advance(u msg.Update, repaired map[string]*relation.Relation) (*relation.Delta, error) {
	for name, r := range repaired {
		m.aux[name] = r
	}
	auxWrites, err := m.plan.AuxWrites(msg.ExprWrites(u.Writes))
	if err != nil {
		return nil, err
	}
	delta, err := expr.DeltaWrites(m.plan.Rewritten, auxWrites, m)
	if err != nil {
		return nil, err
	}
	for _, w := range auxWrites {
		r := m.aux[w.Relation]
		if r == nil {
			continue // degraded mid-transaction is impossible here, but stay safe
		}
		if err := r.Apply(w.Delta); err != nil {
			return nil, fmt.Errorf("auxiliary %q diverged: %w", w.Relation, err)
		}
	}
	if repaired == nil {
		m.localDeltas.Inc()
	}
	m.enforceBound()
	return delta, nil
}

// enforceBound drops auxiliaries over MaxAuxRows and refreshes the
// footprint gauge (a cheap estimate: rows × columns × 8 bytes).
func (m *SelfMaintaining) enforceBound() {
	var bytes int64
	for name, r := range m.aux {
		if r == nil {
			continue
		}
		if m.cfg.MaxAuxRows > 0 && r.Cardinality() > int64(m.cfg.MaxAuxRows) {
			m.aux[name] = nil
			continue
		}
		bytes += r.Cardinality() * int64(r.Schema().Len()) * 8
	}
	m.auxBytes.Set(bytes)
}
