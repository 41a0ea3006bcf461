// Package system assembles the full warehouse architecture of Figure 1 —
// source cluster, integrator, one view manager per view, one or more merge
// processes, and the warehouse — as a set of msg.Node processes plus the
// bookkeeping drivers need (freshness targets per view).
//
// The same assembly runs under the goroutine runtime (the public whips
// facade) and under the deterministic simulator (the benchmark harness).
package system

import (
	"fmt"
	"sync"

	"whips/internal/expr"
	"whips/internal/integrator"
	"whips/internal/merge"
	"whips/internal/msg"
	"whips/internal/obs"
	"whips/internal/plan"
	"whips/internal/relation"
	"whips/internal/source"
	"whips/internal/viewmgr"
	"whips/internal/warehouse"
)

// ManagerKind selects a view-manager implementation (§3.3, §6.3).
type ManagerKind uint8

// Available view manager kinds.
const (
	// Complete: one AL per update from self-maintained replicas.
	Complete ManagerKind = iota
	// CompleteQuery: one AL per update via versioned source queries.
	CompleteQuery
	// Batching: strongly consistent Strobe-style batching of intertwined
	// updates (requires a ComputeDelay to actually batch).
	Batching
	// QueryBatching: strongly consistent diff-shipping via source queries.
	QueryBatching
	// Refresh: §6.3 periodic refresh every Param updates.
	Refresh
	// CompleteN: §6.3 complete-N with N = Param.
	CompleteN
	// Convergent: §6.3 convergence-only.
	Convergent
	// SelfMaintaining: one AL per update from auxiliary relations derived
	// by expr.AnalyzeSelfMaint — zero source queries on the covered path,
	// bounded repair queries when Config.MaxAuxRows drops an auxiliary.
	SelfMaintaining
)

// String names the kind.
func (k ManagerKind) String() string {
	switch k {
	case Complete:
		return "complete"
	case CompleteQuery:
		return "complete-query"
	case Batching:
		return "batching"
	case QueryBatching:
		return "query-batching"
	case Refresh:
		return "refresh"
	case CompleteN:
		return "complete-N"
	case Convergent:
		return "convergent"
	case SelfMaintaining:
		return "self-maintaining"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Level returns the consistency level a kind guarantees.
func (k ManagerKind) Level() msg.Level {
	switch k {
	case Complete, CompleteQuery, SelfMaintaining:
		return msg.Complete
	case Convergent:
		return msg.Convergent
	default:
		return msg.Strong
	}
}

// CommitKind selects a §4.3 commit strategy.
type CommitKind uint8

// Available commit strategies.
const (
	Sequential CommitKind = iota
	Dependency
	Batched
	// Immediate performs no commit-order control: the §4.3 hazard baseline.
	Immediate
)

// String names the commit strategy.
func (k CommitKind) String() string {
	switch k {
	case Sequential:
		return "sequential"
	case Dependency:
		return "dependency"
	case Batched:
		return "batched"
	case Immediate:
		return "immediate"
	}
	return fmt.Sprintf("commit(%d)", uint8(k))
}

// ViewDef declares one warehouse view.
type ViewDef struct {
	ID      msg.ViewID
	Expr    expr.Expr
	Manager ManagerKind
	// Param is the N of CompleteN / period of Refresh.
	Param int
	// ComputeDelay models delta-computation cost for replica-based
	// managers (nanoseconds as a function of batch size).
	ComputeDelay func(updates int) int64
	// StageData enables §6.3 coordinate-commit-only data transfer
	// (honoured by Refresh managers): deltas ship directly to the
	// warehouse and the merge process sees only commit tokens.
	StageData bool
}

// SourceDef declares one source and its initial base relations.
type SourceDef struct {
	ID        msg.SourceID
	Relations map[string]*relation.Relation
}

// Config assembles a system.
type Config struct {
	Sources []SourceDef
	Views   []ViewDef
	// Algorithm overrides the merge algorithm; nil selects by weakest
	// manager level (§6.3).
	Algorithm *merge.Algorithm
	// Commit selects the §4.3 strategy.
	Commit CommitKind
	// BatchSize / FlushAfter parameterize the Batched strategy.
	BatchSize  int
	FlushAfter int64
	// DistributedMerge partitions views into merge groups (§6.1).
	DistributedMerge bool
	// RelevanceFilter enables ref-[7] irrelevant-update filtering.
	RelevanceFilter bool
	// EmptyRelevantSets forwards updates relevant to no view as empty rows.
	EmptyRelevantSets bool
	// RelayRelevantSets enables §3.2's alternative routing: RELᵢ rides
	// with one designated view manager's update copy instead of being sent
	// to the merge process directly.
	RelayRelevantSets bool
	// OptimizeViews rewrites every view definition through expr.Optimize
	// (selection pushdown, column pruning) before managers are built.
	OptimizeViews bool
	// SharedPlans builds a shared maintenance-plan DAG (internal/plan)
	// over the view set: common subexpressions are canonicalized, shared,
	// and maintained once at the integrator, and every replica-based view
	// manager receives its precomputed delta with each update instead of
	// evaluating a private tree. Incompatible with query-based manager
	// kinds (CompleteQuery, QueryBatching), whose deltas come from source
	// queries rather than local evaluation.
	SharedPlans bool
	// MaxAuxRows bounds each auxiliary relation a SelfMaintaining manager
	// keeps; 0 means unbounded. See viewmgr.Config.MaxAuxRows.
	MaxAuxRows int
	// LogStates records the warehouse state sequence for the checker.
	LogStates bool
	// Clock supplies commit timestamps (defaults to zero; the runtime and
	// simulator install their own).
	Clock func() int64
	// WarehouseExecDelay models warehouse transaction scheduling (§4.3
	// hazard demonstrations).
	WarehouseExecDelay func(msg.WarehouseTxn) int64
	// CommitObserver is invoked on every warehouse commit.
	CommitObserver func(warehouse.CommitInfo)
	// Workers sizes a worker pool shared by all view managers for their
	// delta computations (see viewmgr.Pool). 0 keeps the pure-latency
	// model: busy periods are timers, so every view's modeled compute
	// overlaps freely. N >= 1 models N compute units: at most N busy
	// periods make progress at once. The pool is owned by the System —
	// drivers call Close when done.
	Workers int
	// Pool supplies an existing pool instead, overriding Workers. The
	// System does not own it; the caller closes it. The schedule explorer
	// uses this to share one pool across thousands of rebuilt fleets.
	Pool *viewmgr.Pool
	// Obs attaches an observability pipeline to every process: pipeline
	// metrics land in its registry, and when tracing is enabled each
	// update's journey (commit → route → al → rel → submit → wh_commit)
	// is emitted as trace events keyed by sequence number.
	Obs *obs.Pipeline
	// Replicate attaches an in-process read replica fed synchronously from
	// the warehouse's replication feed. With tracing enabled it emits the
	// same repl_pub / repl_apply / repl_snap events a live follower would,
	// so simulated and explored runs assemble the same span chains as
	// multi-process replicated deployments.
	Replicate bool
}

// System is the assembled set of processes.
type System struct {
	Cluster    *source.Cluster
	Integrator *integrator.Integrator
	Warehouse  *warehouse.Warehouse
	Merges     []*merge.Merge
	Managers   map[msg.ViewID]viewmgr.Manager
	Groups     map[msg.ViewID]int
	Algorithm  merge.Algorithm
	Views      map[msg.ViewID]expr.Expr
	// Replica is the in-process read replica (Config.Replicate), fed by
	// every warehouse commit; nil otherwise.
	Replica *warehouse.Replica
	// Plan is the shared maintenance-plan DAG (Config.SharedPlans); nil
	// in per-view mode. Owned by the integrator once the system runs.
	Plan *plan.DAG
	// Pool is the view managers' shared worker pool (nil when serial).
	Pool *viewmgr.Pool
	// ownedPool marks a pool Build created from Config.Workers, which
	// Close shuts down.
	ownedPool bool

	matcher *integrator.Matcher
	obsp    *obs.Pipeline

	mu sync.Mutex
	// Freshness expectations. An update is expected to reach every view it
	// is relevant to — but a boundary manager (complete-N, refresh) only
	// emits at multiples of its boundary, and MVC then legitimately holds
	// the update back from EVERY relevant view. Such expectations stay
	// dormant until each boundary view involved has crossed the update.
	relevantCount map[msg.ViewID]int
	boundary      map[msg.ViewID]int // emit boundary (complete-N N, refresh period)
	outstanding   []*expectation
	dormant       map[msg.ViewID][]*expectation // keyed by the boundary views holding them
}

// expectation records that update Seq must eventually be reflected by all
// Views; Holds counts boundary views that have not yet crossed it.
type expectation struct {
	Seq   msg.UpdateID
	Views []msg.ViewID
	Holds int
}

// Build assembles the system.
func Build(cfg Config) (*System, error) {
	if len(cfg.Sources) == 0 {
		return nil, fmt.Errorf("system: at least one source is required")
	}
	if len(cfg.Views) == 0 {
		return nil, fmt.Errorf("system: at least one view is required")
	}
	cluster := source.NewCluster(cfg.Clock)
	if cfg.Obs != nil {
		cluster.SetObs(cfg.Obs)
	}
	for _, s := range cfg.Sources {
		cluster.AddSource(s.ID)
		for name, rel := range s.Relations {
			if err := cluster.LoadRelation(s.ID, name, rel); err != nil {
				return nil, err
			}
		}
	}

	if cfg.OptimizeViews {
		optimized := make([]ViewDef, len(cfg.Views))
		copy(optimized, cfg.Views)
		for i := range optimized {
			optimized[i].Expr = expr.Optimize(optimized[i].Expr)
		}
		cfg.Views = optimized
	}
	views := make(map[msg.ViewID]expr.Expr, len(cfg.Views))
	levels := make([]msg.Level, 0, len(cfg.Views))
	for _, v := range cfg.Views {
		if _, dup := views[v.ID]; dup {
			return nil, fmt.Errorf("system: duplicate view id %q", v.ID)
		}
		views[v.ID] = v.Expr
		levels = append(levels, v.Manager.Level())
		for _, rel := range v.Expr.BaseRelations() {
			if _, ok := cluster.Owner(rel); !ok {
				return nil, fmt.Errorf("system: view %s reads unknown base relation %q", v.ID, rel)
			}
		}
	}

	algorithm := merge.ForLevel(levels...)
	if cfg.Algorithm != nil {
		algorithm = *cfg.Algorithm
	}

	groups := make(map[msg.ViewID]int, len(cfg.Views))
	nGroups := 1
	if cfg.DistributedMerge {
		groups = merge.Partition(views)
		if err := merge.CheckPartition(views, groups); err != nil {
			return nil, err
		}
		nGroups = merge.Groups(groups)
	} else {
		for id := range views {
			groups[id] = 0
		}
	}

	infos := make([]integrator.ViewInfo, 0, len(cfg.Views))
	for _, v := range cfg.Views {
		infos = append(infos, integrator.ViewInfo{ID: v.ID, Expr: v.Expr, MergeGroup: groups[v.ID]})
	}
	var iopts []integrator.Option
	if cfg.RelevanceFilter {
		iopts = append(iopts, integrator.WithRelevanceFilter())
	}
	if cfg.EmptyRelevantSets {
		iopts = append(iopts, integrator.WithEmptyRelevantSets())
	}
	if cfg.RelayRelevantSets {
		iopts = append(iopts, integrator.WithRelayedRelevantSets())
	}
	if cfg.Obs != nil {
		iopts = append(iopts, integrator.WithObs(cfg.Obs))
	}
	var dag *plan.DAG
	if cfg.SharedPlans {
		pviews := make([]plan.View, 0, len(cfg.Views))
		for _, v := range cfg.Views {
			if v.Manager == CompleteQuery || v.Manager == QueryBatching || v.Manager == SelfMaintaining {
				return nil, fmt.Errorf("system: shared plans are incompatible with query-based manager kind %v (view %s)", v.Manager, v.ID)
			}
			pviews = append(pviews, plan.View{ID: v.ID, Expr: v.Expr})
		}
		var err error
		dag, err = plan.Build(pviews, cluster.DatabaseAt(0))
		if err != nil {
			return nil, err
		}
		iopts = append(iopts, integrator.WithSharedPlans(dag))
	}
	integ := integrator.New(infos, iopts...)

	pool := cfg.Pool
	ownedPool := false
	if pool == nil && cfg.Workers > 0 {
		pool = viewmgr.NewPool(cfg.Workers)
		ownedPool = true
	}
	if cfg.Obs != nil {
		pool.SetObs(cfg.Obs.Reg())
	}

	initDB := cluster.DatabaseAt(0)
	sys := &System{
		Cluster:       cluster,
		Integrator:    integ,
		Managers:      make(map[msg.ViewID]viewmgr.Manager, len(cfg.Views)),
		Groups:        groups,
		Algorithm:     algorithm,
		Views:         views,
		Plan:          dag,
		matcher:       integ.Matcher(),
		Pool:          pool,
		ownedPool:     ownedPool,
		relevantCount: make(map[msg.ViewID]int),
		boundary:      make(map[msg.ViewID]int),
		dormant:       make(map[msg.ViewID][]*expectation),
	}

	initial := make(map[msg.ViewID]*relation.Relation, len(cfg.Views))
	for _, v := range cfg.Views {
		val, err := expr.Eval(v.Expr, initDB)
		if err != nil {
			return nil, fmt.Errorf("system: initializing view %s: %w", v.ID, err)
		}
		initial[v.ID] = val

		mc := viewmgr.Config{
			View:         v.ID,
			Expr:         v.Expr,
			Merge:        msg.NodeMerge(groups[v.ID]),
			ComputeDelay: v.ComputeDelay,
			StageData:    v.StageData,
			Pool:         pool,
			Obs:          cfg.Obs,
			SharedDeltas: cfg.SharedPlans,
			MaxAuxRows:   cfg.MaxAuxRows,
		}
		var mgr viewmgr.Manager
		switch v.Manager {
		case Complete:
			mgr, err = viewmgr.NewComplete(mc, initDB)
		case CompleteQuery:
			mgr = viewmgr.NewCompleteQuery(mc)
		case SelfMaintaining:
			mgr, err = viewmgr.NewSelfMaintaining(mc, initDB)
		case Batching:
			mgr, err = viewmgr.NewBatching(mc, initDB)
		case QueryBatching:
			mgr = viewmgr.NewQueryBatching(mc, val)
		case Refresh:
			mgr, err = viewmgr.NewRefresh(mc, initDB, max(v.Param, 1))
			sys.boundary[v.ID] = max(v.Param, 1)
		case CompleteN:
			mgr, err = viewmgr.NewCompleteN(mc, initDB, max(v.Param, 1))
			sys.boundary[v.ID] = max(v.Param, 1)
		case Convergent:
			mgr, err = viewmgr.NewConvergent(mc, initDB)
		default:
			err = fmt.Errorf("system: unknown manager kind %v", v.Manager)
		}
		if err != nil {
			return nil, err
		}
		sys.Managers[v.ID] = mgr
	}

	var whOpts []warehouse.Option
	if cfg.LogStates {
		whOpts = append(whOpts, warehouse.WithStateLog())
	}
	if cfg.WarehouseExecDelay != nil {
		whOpts = append(whOpts, warehouse.WithExecDelay(cfg.WarehouseExecDelay))
	}
	if cfg.CommitObserver != nil {
		whOpts = append(whOpts, warehouse.WithCommitObserver(cfg.CommitObserver))
	}
	if cfg.Obs != nil {
		whOpts = append(whOpts, warehouse.WithObs(cfg.Obs))
	}
	sys.obsp = cfg.Obs
	if cfg.Replicate {
		sys.Replica = warehouse.NewReplica()
		whOpts = append(whOpts, warehouse.WithReplFeed(64, sys.applyReplica))
	}
	sys.Warehouse = warehouse.New(initial, whOpts...)
	if cfg.Replicate {
		// Seed the replica with the epoch-0 checkpoint so the first live
		// epoch (1) applies densely, exactly like a follower's catch-up.
		snap := sys.Warehouse.Snapshot()
		// Term-0 in-process checkpoints are never fenced; Install cannot fail.
		_ = sys.Replica.Install(snap.ReplMsg(snap.Epoch))
	}

	for g := 0; g < nGroups; g++ {
		var strat merge.Strategy
		self := msg.NodeMerge(g)
		switch cfg.Commit {
		case Sequential:
			strat = merge.NewSequential(self, g)
		case Dependency:
			strat = merge.NewDependency(self, g)
		case Batched:
			flush := cfg.FlushAfter
			if flush == 0 {
				flush = 1_000_000 // 1ms default so partial batches drain
			}
			strat = merge.NewBatched(self, g, max(cfg.BatchSize, 1), flush)
		case Immediate:
			strat = merge.NewImmediate(self, g)
		default:
			return nil, fmt.Errorf("system: unknown commit strategy %v", cfg.Commit)
		}
		var mopts []merge.Option
		if cfg.RelayRelevantSets {
			mopts = append(mopts, merge.WithRelayedRELs())
		}
		if cfg.Obs != nil {
			mopts = append(mopts, merge.WithObs(cfg.Obs))
		}
		sys.Merges = append(sys.Merges, merge.New(g, algorithm, strat, mopts...))
	}
	return sys, nil
}

// ReplicaNode names the in-process replica in trace events.
const ReplicaNode = "replica"

// applyReplica feeds one committed epoch into the in-process replica
// (Config.Replicate). It runs synchronously on the warehouse commit path,
// so timestamps reuse the commit's clock — virtual time under the
// simulator — and the emitted repl_apply events stay deterministic. A gap
// (duplicate epochs are skipped silently) reinstalls from the current
// snapshot, the in-process analogue of a follower's checkpoint repair.
func (s *System) applyReplica(e msg.ReplEpoch) {
	if err := s.Replica.ApplyEpoch(e); err != nil {
		snap := s.Warehouse.Snapshot()
		// Term-0 in-process checkpoints are never fenced; Install cannot fail.
		_ = s.Replica.Install(snap.ReplMsg(snap.Epoch))
		if s.obsp.Tracing() {
			s.obsp.Trace(obs.Event{
				TS: e.CommitAt, Node: ReplicaNode, Stage: obs.StageReplSnap,
				Epoch: snap.Epoch,
			}.Ctx(e.Trace.Next(e.CommitAt)))
		}
		return
	}
	if s.Replica.Epoch() != e.Epoch {
		return // duplicate, skipped by the replica
	}
	if s.obsp.Tracing() {
		rows := make([]int64, len(e.Rows))
		for i, r := range e.Rows {
			rows[i] = int64(r)
		}
		s.obsp.Trace(obs.Event{
			TS: e.CommitAt, Node: ReplicaNode, Stage: obs.StageReplApply,
			Txn: int64(e.Txn), Rows: rows, Epoch: e.Epoch,
		}.Ctx(e.Trace.Next(e.CommitAt)))
	}
}

// StateNode is the durable-state contract (mirrors durable.Durable):
// a process that can snapshot its full state to bytes and restore it.
type StateNode interface {
	MarshalState() ([]byte, error)
	RestoreState([]byte) error
}

// DurableNodes returns every process that supports durable snapshots,
// keyed by its msg node name (the cluster under msg.NodeCluster even
// though the snapshot captures the *source.Cluster behind the node
// wrapper). The second result lists processes that do NOT support
// state capture; every built-in manager kind — including the
// query-based ones, whose QID bookkeeping and backlog now snapshot
// like everything else — implements StateNode, so it is empty unless
// a caller installs a custom manager without MarshalState/RestoreState.
func (s *System) DurableNodes() (map[string]StateNode, []string) {
	parts := make(map[string]StateNode)
	var missing []string
	parts[msg.NodeCluster] = s.Cluster
	parts[msg.NodeIntegrator] = s.Integrator
	parts[msg.NodeWarehouse] = s.Warehouse
	for _, m := range s.Merges {
		parts[m.ID()] = m
	}
	for id, mgr := range s.Managers {
		if sn, ok := mgr.(StateNode); ok {
			parts[msg.NodeViewManager(id)] = sn
		} else {
			missing = append(missing, msg.NodeViewManager(id))
		}
	}
	return parts, missing
}

// Close releases resources the System owns — currently the worker pool
// created from Config.Workers. A pool supplied via Config.Pool is the
// caller's to close. Safe to call on a serial system and safe to call
// twice.
func (s *System) Close() {
	if s.ownedPool {
		s.Pool.Close()
	}
}

// Nodes returns every process of the system.
func (s *System) Nodes() []msg.Node {
	nodes := []msg.Node{source.NewNode(s.Cluster), s.Integrator, s.Warehouse}
	for _, m := range s.Merges {
		nodes = append(nodes, m)
	}
	for _, mgr := range s.Managers {
		nodes = append(nodes, mgr)
	}
	return nodes
}

// TrackUpdate records an executed update for freshness expectations.
// Drivers call it for every update they feed the integrator.
func (s *System) TrackUpdate(u msg.Update) {
	rel := s.matcher.Match(u)
	if len(rel) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	views := make([]msg.ViewID, 0, len(rel))
	for id := range rel {
		views = append(views, id)
		s.relevantCount[id]++
	}
	// Opportunistically prune satisfied expectations so drivers that never
	// poll Fresh() do not accumulate them without bound.
	if len(s.outstanding) > 0 && len(s.outstanding)%256 == 0 {
		upto := s.Warehouse.Upto()
		live := s.outstanding[:0]
		for _, e := range s.outstanding {
			done := true
			for _, id := range e.Views {
				if upto[id] < e.Seq {
					done = false
					break
				}
			}
			if !done {
				live = append(live, e)
			}
		}
		s.outstanding = live
	}
	e := &expectation{Seq: u.Seq, Views: views}
	var crossed []msg.ViewID
	for _, id := range views {
		b := s.boundary[id]
		if b <= 1 {
			continue
		}
		if s.relevantCount[id]%b == 0 {
			crossed = append(crossed, id)
		} else {
			// This boundary view holds the update until its next boundary.
			e.Holds++
			s.dormant[id] = append(s.dormant[id], e)
		}
	}
	if e.Holds == 0 {
		s.outstanding = append(s.outstanding, e)
	}
	// A boundary view crossing its boundary releases every update it was
	// holding (its covering list reaches u.Seq).
	for _, id := range crossed {
		held := s.dormant[id]
		s.dormant[id] = nil
		for _, d := range held {
			d.Holds--
			if d.Holds == 0 {
				s.outstanding = append(s.outstanding, d)
			}
		}
	}
}

// FreshTargets returns, per view, the newest update the view is expected
// to eventually reflect.
func (s *System) FreshTargets() map[msg.ViewID]msg.UpdateID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[msg.ViewID]msg.UpdateID)
	for _, e := range s.outstanding {
		for _, id := range e.Views {
			if e.Seq > out[id] {
				out[id] = e.Seq
			}
		}
	}
	return out
}

// Fresh reports whether the warehouse has satisfied every active
// expectation; satisfied ones are pruned.
func (s *System) Fresh() bool {
	upto := s.Warehouse.Upto()
	s.mu.Lock()
	defer s.mu.Unlock()
	live := s.outstanding[:0]
	for _, e := range s.outstanding {
		done := true
		for _, id := range e.Views {
			if upto[id] < e.Seq {
				done = false
				break
			}
		}
		if !done {
			live = append(live, e)
		}
	}
	s.outstanding = live
	return len(live) == 0
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
