package viewmgr

import (
	"fmt"

	"whips/internal/expr"
	"whips/internal/msg"
	"whips/internal/obs"
	"whips/internal/relation"
)

// maxQueryRetries bounds re-issues of a failed source query within one
// round before the manager treats the failure as permanent. Transient
// errors (a source restarting, a dropped session) resolve well within the
// bound; a source that keeps failing is a real outage and the panic
// surfaces it instead of retrying forever.
const maxQueryRetries = 8

// sourceQuery is one versioned source read a round waits on; key names
// its answer.
type sourceQuery struct {
	key  string
	expr expr.Expr
	asOf msg.UpdateID
}

// queryRound is the source-query path every query-capable manager shares:
// it issues a round of versioned reads under fresh QIDs, drops responses
// to QIDs it is not waiting on (abandoned rounds, failed attempts),
// re-issues a failed read under a fresh QID with the same expression and
// AsOf, and collects the answers by key. nextQID outlives rounds and is
// persisted, so a response addressed to a pre-crash QID can never alias a
// fresh one.
type queryRound struct {
	view    msg.ViewID
	nextQID msg.QueryID
	pending map[msg.QueryID]sourceQuery // nil between rounds
	answers map[string]*relation.Relation
	retries int // failed-response re-issues within the current round
	// issued counts every QueryRequest sent to the sources (the
	// round-trips self-maintenance exists to eliminate); retried counts
	// re-issues after a transient QueryResponse.Err.
	issued  *obs.Counter
	retried *obs.Counter
}

func newQueryRound(cfg Config) queryRound {
	r := cfg.Obs.Reg()
	v := string(cfg.View)
	return queryRound{
		view:    cfg.View,
		issued:  r.Counter("vm_source_queries_total", "view", v),
		retried: r.Counter("vm_query_retries_total", "view", v),
	}
}

// active reports whether a round is in flight.
func (q *queryRound) active() bool { return q.pending != nil }

// start begins a round reading every query as of state asOf.
func (q *queryRound) start(asOf msg.UpdateID, qs ...sourceQuery) []msg.Outbound {
	q.pending = make(map[msg.QueryID]sourceQuery, len(qs))
	q.answers = make(map[string]*relation.Relation, len(qs))
	q.retries = 0
	out := make([]msg.Outbound, 0, len(qs))
	for _, s := range qs {
		s.asOf = asOf
		out = append(out, q.issue(s))
	}
	return out
}

func (q *queryRound) issue(s sourceQuery) msg.Outbound {
	q.nextQID++
	q.pending[q.nextQID] = s
	q.issued.Inc()
	return msg.Send(msg.NodeCluster, msg.QueryRequest{
		ID: q.nextQID, From: msg.NodeViewManager(q.view), Expr: s.expr, AsOf: s.asOf,
	})
}

// onResponse folds one response into the round. It returns any re-issue,
// and — once the last answer is in — the answers by key, ending the round.
func (q *queryRound) onResponse(resp msg.QueryResponse) ([]msg.Outbound, map[string]*relation.Relation) {
	s, ok := q.pending[resp.ID]
	if !ok {
		return nil, nil // stale response from an abandoned round or attempt
	}
	delete(q.pending, resp.ID)
	if resp.Err != "" {
		q.retries++
		if q.retries > maxQueryRetries {
			panic(fmt.Sprintf("viewmgr: %s: source query for %q failed %d times: %s",
				q.view, s.key, q.retries, resp.Err))
		}
		q.retried.Inc()
		return []msg.Outbound{q.issue(s)}, nil
	}
	r, err := deltaToRelation(resp.Result)
	if err != nil {
		panic(fmt.Sprintf("viewmgr: %s: source query for %q: %v", q.view, s.key, err))
	}
	q.answers[s.key] = r
	if len(q.pending) > 0 {
		return nil, nil
	}
	answers := q.answers
	q.pending, q.answers = nil, nil
	return nil, answers
}

// updateLoop is the per-update skeleton of the complete managers that may
// consult the sources (CompleteQuery, SelfMaintaining): it queues each
// update, runs at most one source round for the head update — every read
// as of the state just before it — and emits one Complete-level action list
// per update, in order. A round in flight suspends the loop; its
// completion resumes it. The manager embeds the loop and supplies only need
// and delta.
type updateLoop struct {
	cfg Config
	backlog
	q  queryRound
	ob vmObs
	// need returns the queries the head update must wait on (none: it is
	// answered locally).
	need func() []sourceQuery
	// delta computes the update's view delta — given the head round's
	// answers, nil when no round ran — and advances the manager's state.
	delta func(u msg.Update, answers map[string]*relation.Relation) (*relation.Delta, error)
}

func newUpdateLoop(cfg Config) updateLoop {
	return updateLoop{cfg: cfg, q: newQueryRound(cfg), ob: newVMObs(cfg)}
}

// Level returns the manager's consistency level.
func (l *updateLoop) Level() msg.Level { return msg.Complete }

// ID implements msg.Node.
func (l *updateLoop) ID() string { return msg.NodeViewManager(l.cfg.View) }

// Handle implements msg.Node.
func (l *updateLoop) Handle(in any, now int64) []msg.Outbound {
	switch t := in.(type) {
	case msg.Update:
		l.rels.collect(t)
		l.queue = append(l.queue, t)
		l.arrivals = append(l.arrivals, now)
		l.ob.updates.Inc()
		l.ob.queueDepth.Observe(int64(len(l.queue)))
		if l.q.active() {
			return nil // the round's completion resumes the loop
		}
		return l.drain(nil, now)
	case msg.QueryResponse:
		out, answers := l.q.onResponse(t)
		if answers == nil {
			return out
		}
		return l.drain(answers, now)
	default:
		return nil
	}
}

// drain emits one action list per queued update until the queue is empty
// or the head update needs a source round. answers, when non-nil, is the
// just-completed round of the head update.
func (l *updateLoop) drain(answers map[string]*relation.Relation, now int64) []msg.Outbound {
	var out []msg.Outbound
	for len(l.queue) > 0 {
		if answers == nil {
			if qs := l.need(); len(qs) > 0 {
				return append(out, l.q.start(l.queue[0].Seq-1, qs...)...)
			}
		}
		u, firstArrival := l.queue[0], l.arrivals[0]
		l.queue, l.arrivals = l.queue[1:], l.arrivals[1:]
		delta, err := l.delta(u, answers)
		if err != nil {
			panic(fmt.Sprintf("viewmgr: %s: delta of update %d: %v", l.cfg.View, u.Seq, err))
		}
		answers = nil
		als := l.rels.attach([]msg.ActionList{{
			View:  l.cfg.View,
			From:  u.Seq,
			Upto:  u.Seq,
			Delta: delta,
			Level: msg.Complete,
			Trace: u.Trace.Next(now),
		}})
		l.ob.emitAL(&als[0], l.ID(), now, firstArrival, 1)
		out = append(out, msg.Send(l.cfg.Merge, als[0]))
	}
	return out
}

// CompleteQuery is a complete view manager that holds no replicas: for each
// update it queries the sources for the base relations it needs and
// computes the delta view-manager-side. The sources answer versioned
// (as-of) reads; this substitutes for the ECA/Strobe compensation machinery
// of the single-view papers ([16,17]) while producing the identical action
// list stream — one list per relevant update, each consistent with the
// source state right after that update (see DESIGN.md substitutions).
//
// Queries are asynchronous, so the manager exhibits the paper's §1.1
// problem 2: delta computation takes time, and updates pile up behind it.
type CompleteQuery struct {
	updateLoop
}

// NewCompleteQuery builds a query-based complete manager.
func NewCompleteQuery(cfg Config) *CompleteQuery {
	m := &CompleteQuery{newUpdateLoop(cfg)}
	// Every update waits on a scan of every base relation.
	schemas := expr.ScanSchemas(cfg.Expr)
	var scans []sourceQuery
	for _, rel := range cfg.Expr.BaseRelations() {
		scans = append(scans, sourceQuery{key: rel, expr: expr.Scan(rel, schemas[rel])})
	}
	m.need = func() []sourceQuery { return scans }
	m.delta = func(u msg.Update, answers map[string]*relation.Relation) (*relation.Delta, error) {
		return expr.DeltaWrites(cfg.Expr, msg.ExprWrites(u.Writes), expr.MapDB(answers))
	}
	return m
}

// QueryBatching is a strongly consistent manager that recomputes the view
// at its knowledge frontier by querying the sources, then ships the
// difference from what it last sent. While a query is in flight further
// updates accumulate; the next recomputation covers them all in one action
// list — so query latency alone produces the intertwined batches of §5.
type QueryBatching struct {
	cfg      Config
	q        queryRound
	target   msg.UpdateID // frontier being queried
	frontier msg.UpdateID // newest update received
	// frontierTrace/targetTrace carry the causal context of the newest
	// received / currently queried update (nil when tracing is off).
	frontierTrace *obs.TraceCtx
	targetTrace   *obs.TraceCtx
	dirty         bool
	sentUpto      msg.UpdateID
	lastSent      *relation.Relation
	rels          relCarrier
	ob            vmObs
	// dirtySince is the arrival of the oldest un-queried update;
	// queryFirst captures it when the in-flight query starts.
	dirtySince int64
	queryFirst int64
}

// NewQueryBatching builds the manager. initial must be the view contents
// at state 0.
func NewQueryBatching(cfg Config, initial *relation.Relation) *QueryBatching {
	return &QueryBatching{cfg: cfg, q: newQueryRound(cfg), lastSent: initial.Clone(), ob: newVMObs(cfg)}
}

// Level returns the manager's consistency level.
func (m *QueryBatching) Level() msg.Level { return msg.Strong }

// ID implements msg.Node.
func (m *QueryBatching) ID() string { return msg.NodeViewManager(m.cfg.View) }

// Handle implements msg.Node.
func (m *QueryBatching) Handle(in any, now int64) []msg.Outbound {
	switch t := in.(type) {
	case msg.Update:
		m.rels.collect(t)
		m.frontier = t.Seq
		m.frontierTrace = t.Trace
		if !m.dirty {
			m.dirtySince = now
		}
		m.dirty = true
		m.ob.updates.Inc()
		return m.pump()
	case msg.QueryResponse:
		out, answers := m.q.onResponse(t)
		if answers == nil {
			return out
		}
		cur := answers[string(m.cfg.View)]
		als := m.rels.attach([]msg.ActionList{{
			View:  m.cfg.View,
			From:  m.sentUpto + 1,
			Upto:  m.target,
			Delta: cur.DiffFrom(m.lastSent),
			Level: msg.Strong,
			Trace: m.targetTrace.Next(now),
		}})
		m.ob.emitAL(&als[0], m.ID(), now, m.queryFirst, int(m.target-m.sentUpto))
		m.lastSent = cur
		m.sentUpto = m.target
		out = []msg.Outbound{msg.Send(m.cfg.Merge, als[0])}
		return append(out, m.pump()...)
	default:
		return nil
	}
}

func (m *QueryBatching) pump() []msg.Outbound {
	if m.q.active() || !m.dirty {
		return nil
	}
	m.dirty = false
	m.target = m.frontier
	m.targetTrace = m.frontierTrace
	m.queryFirst = m.dirtySince
	return m.q.start(m.target, sourceQuery{key: string(m.cfg.View), expr: m.cfg.Expr})
}

// deltaToRelation converts a query answer — a non-negative signed bag — to
// a relation; a negative multiplicity is an error.
func deltaToRelation(d *relation.Delta) (*relation.Relation, error) {
	r := relation.New(d.Schema())
	return r, r.Apply(d)
}
