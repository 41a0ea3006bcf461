// Package viewmgr implements the view managers of the WHIPS architecture
// (paper §3.3): one concurrent process per materialized view, receiving the
// relevant source updates from the integrator, computing the view's action
// lists, and sending them to the merge process.
//
// The merge algorithms only care about each manager's consistency level
// (§6.3), so the package offers a fleet of managers spanning the paper's
// taxonomy:
//
//   - Complete: one action list per update, computed from self-maintained
//     local replicas of the base relations (refs [4,11]).
//   - CompleteQuery: one action list per update, computed by querying the
//     sources (versioned reads stand in for the single-view compensation
//     machinery of ECA/Strobe — see DESIGN.md substitutions).
//   - Batching: strongly consistent; a busy manager batches the updates
//     that arrived while it was computing into a single action list — the
//     Strobe-style behaviour that motivates the Painting Algorithm (§5).
//   - QueryBatching: strongly consistent; recomputes the view at its
//     knowledge frontier via source queries and ships diffs; query latency
//     makes batches of intertwined updates arise naturally.
//   - Refresh: §6.3 periodic refresh, shipped as a diff every N updates.
//   - CompleteN: §6.3 complete-N; one action list per N updates.
//   - Convergent: §6.3 convergence-only; batch deltas are shipped as
//     separate delete and insert action lists, so intermediate warehouse
//     states may match no source state.
//
// Every manager sends an action list even when its delta is empty (§3.3:
// "If an action list happens to be empty, it is still sent").
package viewmgr

import (
	"fmt"
	"time"

	"whips/internal/expr"
	"whips/internal/msg"
	"whips/internal/obs"
	"whips/internal/relation"
)

// Manager is a view manager: a message-driven process with a declared
// consistency level (§6.3) that the merge process's algorithm choice
// depends on.
type Manager interface {
	msg.Node
	Level() msg.Level
}

// Config is the common view-manager configuration.
type Config struct {
	View  msg.ViewID
	Expr  expr.Expr
	Merge string // node id of the coordinating merge process
	// ComputeDelay models the cost of delta computation: the manager is
	// busy for the returned duration and updates arriving meanwhile queue
	// up. nil means instantaneous.
	ComputeDelay func(updates int) int64
	// StageData ships deltas directly to the warehouse and sends the merge
	// process a commit token only (§6.3 coordinate-commit-only mode, for
	// managers whose lists are large — currently honoured by Refresh).
	StageData bool
	// Pool, when set, parallelizes the order-independent delta work: batch
	// evaluations scatter across its workers (and, when the pool is bound
	// to a runtime, whole busy periods run off the node goroutine). nil
	// keeps everything serial. Either way the emitted action-list stream is
	// identical; see Pool.
	Pool *Pool
	// Obs attaches the observability pipeline: per-view metrics plus trace
	// events for every emitted action list.
	Obs *obs.Pipeline
	// SharedDeltas subscribes the manager to the shared maintenance-plan
	// DAG (internal/plan): every incoming update carries its precomputed
	// ViewDelta, so the manager keeps no base-relation replicas and sums
	// the delivered deltas instead of evaluating its expression tree. The
	// manager's paper role — batching policy, action-list generation, REL
	// relaying, VUT submission — is unchanged; only the delta computation
	// moves upstream.
	SharedDeltas bool
	// MaxAuxRows bounds each auxiliary relation a SelfMaintaining manager
	// keeps: an auxiliary growing past the bound is dropped, and the next
	// update touching it repairs it with a bounded source query. 0 means
	// unbounded (every update is answered locally).
	MaxAuxRows int
}

// vmObs holds a manager's metric handles, resolved once at construction.
// All fields are nil (no-op) without Config.Obs.
type vmObs struct {
	p          *obs.Pipeline
	updates    *obs.Counter
	als        *obs.Counter
	batchSize  *obs.Histogram
	genLatency *obs.Histogram
	queueDepth *obs.Histogram
}

func newVMObs(cfg Config) vmObs {
	r := cfg.Obs.Reg()
	v := string(cfg.View)
	return vmObs{
		p:          cfg.Obs,
		updates:    r.Counter("vm_updates_total", "view", v),
		als:        r.Counter("vm_als_total", "view", v),
		batchSize:  r.Histogram("vm_batch_updates", obs.SizeBuckets(), "view", v),
		genLatency: r.Histogram("vm_gen_latency_ns", obs.LatencyBuckets(), "view", v),
		queueDepth: r.Histogram("vm_queue_depth", obs.SizeBuckets(), "view", v),
	}
}

// emitAL records one outgoing action list: counters, generation latency
// (first covered update's arrival to emission), a trace event, and the
// EmittedAt stamp the merge process turns into transport latency. The
// stamp is only applied with observability attached, keeping golden
// simulator traces byte-identical otherwise.
func (o *vmObs) emitAL(al *msg.ActionList, node string, now, firstArrival int64, batch int) {
	if o.p == nil {
		return
	}
	al.EmittedAt = now
	o.als.Inc()
	o.batchSize.Observe(int64(batch))
	if firstArrival > 0 && now >= firstArrival {
		o.genLatency.Observe(now - firstArrival)
	}
	if o.p.Tracing() {
		var n int64
		if al.Delta != nil {
			n = al.Delta.Size()
		}
		o.p.Trace(obs.Event{
			TS: now, Node: node, Stage: obs.StageAL,
			Seq: int64(al.Upto), View: string(al.View),
			From: int64(al.From), Upto: int64(al.Upto), N: n,
		}.Ctx(al.Trace))
	}
}

func (c *Config) delay(n int) int64 {
	if c.ComputeDelay == nil {
		return 0
	}
	return c.ComputeDelay(n)
}

// replicas is the self-maintained local copy of the base relations a view
// reads (refs [4,11]): because the integrator forwards every update that
// can possibly affect the view, applying those updates locally keeps the
// copies exactly as fresh as the manager's knowledge frontier, and no
// query back to the sources is ever needed.
//
// Tuples discarded by the integrator's irrelevance filter never enter the
// replicas; that is sound, because a tuple provably unable to contribute
// to the view cannot contribute to any future delta either.
type replicas struct {
	db  map[string]*relation.Relation
	seq msg.UpdateID
}

func newReplicas(e expr.Expr, init expr.Database) (*replicas, error) {
	r := &replicas{db: make(map[string]*relation.Relation)}
	for _, name := range e.BaseRelations() {
		rel, err := init.Relation(name)
		if err != nil {
			return nil, fmt.Errorf("viewmgr: seeding replica of %q: %w", name, err)
		}
		r.db[name] = rel.Clone()
	}
	return r, nil
}

// newManagerReplicas seeds a manager's replicas, or — in shared-deltas
// mode — returns an empty set: the DAG holds the only base copies, and
// the replicas object merely tracks the knowledge frontier (apply skips
// every write and still advances seq, and the durable marshal/restore
// path works unchanged over the empty map).
func newManagerReplicas(cfg Config, init expr.Database) (*replicas, error) {
	if cfg.SharedDeltas {
		return &replicas{db: map[string]*relation.Relation{}}, nil
	}
	return newReplicas(cfg.Expr, init)
}

// Relation implements expr.Database.
func (r *replicas) Relation(name string) (*relation.Relation, error) {
	rel, ok := r.db[name]
	if !ok {
		return nil, fmt.Errorf("viewmgr: no replica of %q", name)
	}
	return rel, nil
}

// apply advances the replicas by one update.
func (r *replicas) apply(u msg.Update) error {
	for _, w := range u.Writes {
		rel, ok := r.db[w.Relation]
		if !ok {
			continue // write on a relation this view does not read
		}
		if err := rel.Apply(w.Delta); err != nil {
			return fmt.Errorf("viewmgr: replica of %q diverged at update %d: %w", w.Relation, u.Seq, err)
		}
	}
	r.seq = u.Seq
	return nil
}

// prefixDB presents the (shared, read-only during a scatter) replicas with
// the writes of a batch prefix applied on top. Each worker owns one, so the
// lazy clones are private; the shared replicas are only ever read.
type prefixDB struct {
	base   expr.Database
	prefix []msg.Update
	rels   map[string]*relation.Relation
}

// Relation implements expr.Database.
func (p *prefixDB) Relation(name string) (*relation.Relation, error) {
	if r, ok := p.rels[name]; ok {
		return r, nil
	}
	base, err := p.base.Relation(name)
	if err != nil {
		return nil, err
	}
	r := base
	cloned := false
	for _, u := range p.prefix {
		for _, w := range u.Writes {
			if w.Relation != name || w.Delta.Empty() {
				continue
			}
			if !cloned {
				r = base.Clone()
				cloned = true
			}
			if err := r.Apply(w.Delta); err != nil {
				return nil, fmt.Errorf("viewmgr: prefix state of %q diverged at update %d: %w", name, u.Seq, err)
			}
		}
	}
	if p.rels == nil {
		p.rels = make(map[string]*relation.Relation)
	}
	p.rels[name] = r
	return r, nil
}

// deltaForUpdates composes the view delta for a run of updates, evaluating
// each write at the state its predecessors produced, and advances the
// replicas past them.
//
// With a multi-worker pool the per-update evaluations scatter across the
// workers — update i evaluated against the replicas plus updates 0..i-1 via
// a private prefixDB — and the results are gathered and merged in update
// order, so the total is the same signed bag the serial loop produces
// (delta composition is addition, and each evaluation sees exactly the
// state its predecessors left). Replicas advance serially after the gather.
func deltaForUpdates(e expr.Expr, reps *replicas, batch []msg.Update, pool *Pool, shared bool) (*relation.Delta, error) {
	if shared {
		// Shared-plans mode: each update arrived with its precomputed view
		// delta; batch composition is plain signed-bag addition. The empty
		// replicas still advance so the knowledge frontier (and durable
		// snapshots) stay correct.
		total := relation.NewDelta(e.Schema())
		for _, u := range batch {
			if u.ViewDelta == nil {
				return nil, fmt.Errorf("viewmgr: shared-deltas update %d arrived without a ViewDelta", u.Seq)
			}
			if err := total.Merge(u.ViewDelta); err != nil {
				return nil, err
			}
			if err := reps.apply(u); err != nil {
				return nil, err
			}
		}
		return total, nil
	}
	if pool.Workers() > 1 && len(batch) > 1 {
		deltas := make([]*relation.Delta, len(batch))
		errs := make([]error, len(batch))
		pool.Map(len(batch), func(i int) {
			db := &prefixDB{base: reps, prefix: batch[:i]}
			deltas[i], errs[i] = expr.DeltaWrites(e, msg.ExprWrites(batch[i].Writes), db)
		})
		total := relation.NewDelta(e.Schema())
		for i, u := range batch {
			if errs[i] != nil {
				return nil, errs[i]
			}
			if err := total.Merge(deltas[i]); err != nil {
				return nil, err
			}
			if err := reps.apply(u); err != nil {
				return nil, err
			}
		}
		return total, nil
	}
	total := relation.NewDelta(e.Schema())
	for _, u := range batch {
		d, err := expr.DeltaWrites(e, msg.ExprWrites(u.Writes), reps)
		if err != nil {
			return nil, err
		}
		if err := total.Merge(d); err != nil {
			return nil, err
		}
		if err := reps.apply(u); err != nil {
			return nil, err
		}
	}
	return total, nil
}

// workDone is the self-message ending a simulated computation.
type workDone struct {
	als []msg.ActionList
	// firstArrival is when the batch's earliest update arrived, carried
	// through the busy period for generation-latency accounting.
	firstArrival int64
	batch        int
}

// backlog is what a queueing manager holds between computations: the
// updates no action list covers yet, when each arrived, and the carried
// RELᵢ sets not yet piggybacked. Its wire form (state.go) is the one
// durable encoding of a backlog.
type backlog struct {
	queue    []msg.Update
	arrivals []int64 // arrivals[i] is when queue[i] arrived
	rels     relCarrier
}

// batcher is the shared skeleton of the replica-based managers: it queues
// incoming updates, lets a policy choose how many to take per computation,
// models computation latency with a busy period, and emits the resulting
// action lists when the work completes.
type batcher struct {
	cfg  Config
	reps *replicas
	busy bool
	// backlog.rels piggybacks carried RELᵢ sets onto outgoing lists;
	// immediateRel relays them on receipt instead (complete-N may hold
	// updates below its boundary indefinitely, which would starve other
	// views).
	backlog
	level        msg.Level
	take         func(queued int) int // how many updates to process now (0 = wait)
	encode       func(batch []msg.Update, delta *relation.Delta) []msg.ActionList
	immediateRel bool

	ob vmObs
}

func (b *batcher) id() string { return msg.NodeViewManager(b.cfg.View) }

// relayREL forwards a carried RELᵢ (§3.2 alternative routing) to the merge
// process as its own message. Managers that may hold updates indefinitely
// (complete-N below its boundary, refresh below its period) must use it so
// other views' coordination is never starved; managers that always answer
// an update with a list use relCarrier instead and piggyback the sets onto
// the next list — the message saving of §3.2's alternative.
func relayREL(cfg Config, u msg.Update) []msg.Outbound {
	if u.Rel == nil {
		return nil
	}
	return []msg.Outbound{msg.Send(cfg.Merge, *u.Rel)}
}

// relCarrier accumulates carried RELᵢ sets for piggybacking.
type relCarrier struct {
	pending []msg.RelevantSet
}

func (c *relCarrier) collect(u msg.Update) {
	if u.Rel != nil {
		c.pending = append(c.pending, *u.Rel)
	}
}

// attach adds the pending sets to the first of the given action lists.
func (c *relCarrier) attach(als []msg.ActionList) []msg.ActionList {
	if len(c.pending) > 0 && len(als) > 0 {
		als[0].Rels = c.pending
		c.pending = nil
	}
	return als
}

func (b *batcher) handle(m any, now int64) []msg.Outbound {
	switch t := m.(type) {
	case msg.Update:
		var out []msg.Outbound
		if b.immediateRel {
			out = relayREL(b.cfg, t)
		} else {
			b.rels.collect(t)
		}
		b.queue = append(b.queue, t)
		b.arrivals = append(b.arrivals, now)
		b.ob.updates.Inc()
		b.ob.queueDepth.Observe(int64(len(b.queue)))
		if b.busy {
			return out
		}
		return append(out, b.startWork(now)...)
	case workDone:
		b.busy = false
		out := b.emit(t.als, now, t.firstArrival, t.batch)
		return append(out, b.startWork(now)...)
	default:
		return nil
	}
}

func (b *batcher) startWork(now int64) []msg.Outbound {
	n := b.take(len(b.queue))
	if n <= 0 {
		return nil
	}
	batch := append([]msg.Update(nil), b.queue[:n]...)
	b.queue = append(b.queue[:0], b.queue[n:]...)
	firstArrival := b.arrivals[0]
	b.arrivals = append(b.arrivals[:0], b.arrivals[n:]...)
	d := b.cfg.delay(len(batch))
	if d > 0 {
		// A bound pool takes the whole busy period — the modeled latency
		// plus the evaluation — off the node goroutine; the finished
		// workDone comes back as an ordinary message. The busy flag is the
		// only state touched before the handoff, so the state machine is as
		// pure as in the synchronous branch: while busy, this manager's
		// replicas and queue are untouched by the worker except through the
		// closure below, and nothing else runs until workDone arrives.
		e, reps, encode, view := b.cfg.Expr, b.reps, b.encode, b.cfg.View
		shared := b.cfg.SharedDeltas
		started := b.cfg.Pool.Go(b.id(), func() any {
			sleepNs(d)
			delta, err := deltaForUpdates(e, reps, batch, nil, shared)
			if err != nil {
				panic(fmt.Sprintf("viewmgr: %s: %v", view, err))
			}
			return workDone{als: encode(batch, delta), firstArrival: firstArrival, batch: len(batch)}
		})
		if started {
			b.busy = true
			return nil
		}
	}
	delta, err := deltaForUpdates(b.cfg.Expr, b.reps, batch, b.cfg.Pool, b.cfg.SharedDeltas)
	if err != nil {
		panic(fmt.Sprintf("viewmgr: %s: %v", b.cfg.View, err))
	}
	als := b.encode(batch, delta)
	if d > 0 {
		b.busy = true
		return []msg.Outbound{{To: b.id(), Msg: workDone{als: als, firstArrival: firstArrival, batch: len(batch)}, Delay: d}}
	}
	out := b.emit(als, now, firstArrival, len(batch))
	return append(out, b.startWork(now)...)
}

// sleepNs is the bound-mode realization of a modeled compute delay; a
// package variable so pool tests can run without wall-clock waits.
var sleepNs = func(d int64) { time.Sleep(time.Duration(d)) }

// emit sends the computed action lists, attaching piggybacked RELs and —
// in §6.3 coordinate-commit-only mode — staging each list's delta directly
// at the warehouse while the merge process receives only a token.
func (b *batcher) emit(als []msg.ActionList, now, firstArrival int64, batch int) []msg.Outbound {
	als = b.rels.attach(als)
	out := make([]msg.Outbound, 0, len(als)+1)
	for _, al := range als {
		// Advance the causal context one hop past the covered update's
		// integrator hop. Nil (a no-op) whenever tracing was off upstream,
		// so untraced runs stay byte-identical.
		al.Trace = al.Trace.Next(now)
		b.ob.emitAL(&al, b.id(), now, firstArrival, batch)
		if b.cfg.StageData {
			out = append(out, msg.Send(msg.NodeWarehouse, msg.StageDelta{
				View: al.View, Upto: al.Upto, Delta: al.Delta,
			}))
			al.Delta = nil
			al.Staged = true
		}
		out = append(out, msg.Send(b.cfg.Merge, al))
	}
	return out
}

// singleAL encodes a batch as one action list at the given level.
func singleAL(cfg Config, level msg.Level) func([]msg.Update, *relation.Delta) []msg.ActionList {
	return func(batch []msg.Update, delta *relation.Delta) []msg.ActionList {
		return []msg.ActionList{{
			View:  cfg.View,
			From:  batch[0].Seq,
			Upto:  batch[len(batch)-1].Seq,
			Delta: delta,
			Level: level,
			Trace: batch[len(batch)-1].Trace,
		}}
	}
}
