// Package whips is a Go reproduction of the WHIPS multiple-view-consistency
// system from "Multiple View Consistency for Data Warehousing" (Zhuge,
// Wiener, Garcia-Molina; ICDE 1997).
//
// A System wires together the paper's Figure 1 architecture — autonomous
// sources, an integrator, one concurrent view manager per materialized
// view, one or more merge processes running the Simple Painting Algorithm
// (complete MVC) or the Painting Algorithm (strongly consistent MVC), and
// the warehouse — with every process running as its own goroutine.
//
// Quickstart:
//
//	rs := whips.MustSchema("A:int", "B:int")
//	ss := whips.MustSchema("B:int", "C:int")
//	sys, _ := whips.New(whips.Config{
//		Sources: []whips.SourceDef{{ID: "src", Relations: map[string]*whips.Relation{
//			"R": whips.FromTuples(rs, whips.T(1, 2)),
//			"S": whips.NewRelation(ss),
//		}}},
//		Views: []whips.ViewDef{
//			{ID: "V1", Expr: whips.MustJoin(whips.Scan("R", rs), whips.Scan("S", ss)), Manager: whips.Complete},
//		},
//	})
//	sys.Start()
//	defer sys.Stop()
//	sys.Execute("src", whips.Insert("S", ss, whips.T(2, 3)))
//	sys.WaitFresh(time.Second)
//	views, _ := sys.Read("V1")
package whips

import (
	"fmt"
	"sync"
	"time"

	"whips/internal/consistency"
	"whips/internal/durable"
	"whips/internal/merge"
	"whips/internal/msg"
	"whips/internal/obs"
	"whips/internal/query"
	"whips/internal/relation"
	"whips/internal/runtime"
	"whips/internal/source"
	"whips/internal/system"
	"whips/internal/warehouse"
)

// Config configures a warehouse system. The zero value of every optional
// field is usable; Sources and Views are required.
type Config struct {
	// Sources declares the autonomous sources and their initial relations.
	Sources []SourceDef
	// Views declares the materialized views and their managers.
	Views []ViewDef
	// Commit selects the §4.3 commit strategy (default Sequential).
	Commit CommitKind
	// BatchSize and FlushAfter parameterize the Batched strategy.
	BatchSize  int
	FlushAfter time.Duration
	// DistributedMerge partitions views over multiple merge processes
	// (§6.1); views in different groups must share no base relations.
	DistributedMerge bool
	// RelevanceFilter discards provably irrelevant updates per view.
	RelevanceFilter bool
	// RelayRelevantSets routes RELᵢ through a designated view manager
	// instead of a direct integrator→merge message (§3.2 alternative),
	// saving one message per update per merge group.
	RelayRelevantSets bool
	// OptimizeViews rewrites view definitions (selection pushdown, column
	// pruning) before building managers; semantics are unchanged.
	OptimizeViews bool
	// SharedPlans maintains overlapping views through a shared
	// maintenance-plan DAG (internal/plan): subexpressions common to
	// several views are canonicalized and evaluated once per update at
	// the integrator, and each manager receives its precomputed delta.
	// Action-list contents — and so every consistency guarantee — are
	// unchanged; only where the deltas are computed moves. Incompatible
	// with query-based manager kinds.
	SharedPlans bool
	// MaxAuxRows bounds each auxiliary relation a self-maintaining manager
	// keeps: an auxiliary growing past the bound is dropped and repaired
	// with a bounded source query when next needed. 0 means unbounded.
	MaxAuxRows int
	// Workers sizes the view managers' shared worker pool. 0 (default)
	// keeps the pure-latency model: ComputeDelay busy periods are timers
	// and overlap freely. N >= 1 models N compute units — delta
	// computations (including their modeled busy period) run on the pool,
	// so at most N views make compute progress at once; worker count then
	// governs how much compute latency the views can overlap. Either way
	// every view's action-list stream — and so every consistency
	// guarantee — is unchanged.
	Workers int
	// LogStates records the warehouse state sequence so Consistency()
	// can judge the run. Costs a deep view clone per transaction.
	LogStates bool
	// Jitter randomly delays message edges (chaos testing); zero disables.
	Jitter time.Duration
	// Seed seeds the jitter source.
	Seed int64
	// Algorithm forces a merge algorithm; nil selects automatically from
	// the weakest manager level (§6.3).
	Algorithm *Algorithm
	// Obs attaches an observability pipeline: every process records its
	// metrics in the pipeline's registry, and when a tracer is attached
	// each update's journey through the pipeline is emitted as trace
	// events (see internal/obs).
	Obs *obs.Pipeline
	// Replicate attaches an in-process read replica fed from the
	// warehouse's replication feed, extending traced spans through
	// repl_pub and repl_apply exactly like a live follower deployment.
	Replicate bool
	// Durable enables crash recovery: every executed update is written to
	// a write-ahead log before it enters the pipeline, and Checkpoint (or
	// SnapshotEvery) persists full system snapshots. A fresh New against
	// the same directory restores the snapshot and replays the WAL suffix.
	// Requires Workers == 0 and disables source-history garbage
	// collection. Every built-in manager kind snapshots, including the
	// query-based ones (their QID bookkeeping and backlog persist; a
	// query round in flight at a checkpoint is abandoned and restarted).
	Durable *DurableOptions
}

// DurableOptions configures Config.Durable.
type DurableOptions struct {
	// Dir is the data directory holding WAL segments and snapshots.
	Dir string
	// Fsync selects when appends reach stable storage (default FsyncAlways).
	Fsync FsyncPolicy
	// SnapshotEvery checkpoints automatically after that many executed
	// updates; 0 means only explicit Checkpoint calls snapshot. Automatic
	// checkpoints quiesce the pipeline (best effort, bounded wait).
	SnapshotEvery int
}

// System is a running WHIPS warehouse.
type System struct {
	sys *system.System
	net *runtime.Network
	qe  *query.Engine

	mu        sync.Mutex
	started   bool
	stopped   bool
	sinceGC   int
	gcEnabled bool

	host      *durable.Host
	store     *durable.Store
	snapEvery int
	sinceSnap int
}

// New assembles a system. Call Start to launch its processes.
func New(cfg Config) (*System, error) {
	scfg := system.Config{
		Sources:           cfg.Sources,
		Views:             cfg.Views,
		Commit:            cfg.Commit,
		BatchSize:         cfg.BatchSize,
		FlushAfter:        int64(cfg.FlushAfter),
		DistributedMerge:  cfg.DistributedMerge,
		RelevanceFilter:   cfg.RelevanceFilter,
		RelayRelevantSets: cfg.RelayRelevantSets,
		OptimizeViews:     cfg.OptimizeViews,
		SharedPlans:       cfg.SharedPlans,
		MaxAuxRows:        cfg.MaxAuxRows,
		LogStates:         cfg.LogStates,
		Clock:             func() int64 { return time.Now().UnixNano() },
		Algorithm:         cfg.Algorithm,
		Workers:           cfg.Workers,
		Obs:               cfg.Obs,
		Replicate:         cfg.Replicate,
	}
	sys, err := system.Build(scfg)
	if err != nil {
		return nil, err
	}
	s := &System{sys: sys, gcEnabled: !cfg.LogStates && cfg.Durable == nil}
	qopts := []query.Option{query.WithClock(scfg.Clock)}
	if cfg.Obs != nil {
		qopts = append(qopts, query.WithObs(cfg.Obs))
	}
	s.qe = query.New(sys.Warehouse, qopts...)
	if cfg.Durable != nil {
		if cfg.Workers > 0 {
			return nil, fmt.Errorf("whips: durable mode requires Workers == 0 — worker pools break replay determinism")
		}
		parts, missing := sys.DurableNodes()
		if len(missing) > 0 {
			return nil, fmt.Errorf("whips: durable mode cannot snapshot managers without state capture %v", missing)
		}
		store, err := durable.Open(durable.StoreConfig{Dir: cfg.Durable.Dir, Fsync: cfg.Durable.Fsync, Obs: cfg.Obs})
		if err != nil {
			return nil, err
		}
		nodes := make(map[string]msg.Node)
		for _, n := range sys.Nodes() {
			nodes[n.ID()] = n
		}
		dparts := make(map[string]durable.Durable, len(parts))
		for name, p := range parts {
			dparts[name] = p
		}
		s.store = store
		s.snapEvery = cfg.Durable.SnapshotEvery
		s.host = durable.NewHost(durable.HostConfig{
			Store: store,
			Nodes: nodes,
			Parts: dparts,
			OnExec: func(u msg.Update) error {
				if err := sys.Cluster.Replay(u); err != nil {
					return err
				}
				sys.TrackUpdate(u)
				return nil
			},
			Obs: cfg.Obs,
		})
		// Replay before the runtime launches: the pump drives the same node
		// objects the network will own, single-threaded and virtually timed.
		if err := s.host.Recover(); err != nil {
			store.Close()
			return nil, err
		}
	}
	var opts []runtime.Option
	if cfg.Jitter > 0 {
		opts = append(opts, runtime.WithSeededJitter(cfg.Seed, cfg.Jitter))
	}
	if cfg.Obs != nil {
		opts = append(opts, runtime.WithObs(cfg.Obs))
	}
	s.net = runtime.New(sys.Nodes(), opts...)
	// Bind the worker pool to the runtime so busy periods run on workers
	// and their results come back as ordinary messages, with the network's
	// in-flight accounting covering the gap.
	sys.Pool.Bind(s.net.Inject, s.net.Reserve)
	// Source version history is needed by the consistency checker; without
	// state logging it can be garbage collected as views catch up. Durable
	// runs keep it too: trim timing is not reproduced by WAL replay.
	return s, nil
}

// Start launches every process goroutine.
func (s *System) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	s.net.Start()
}

// Stop terminates the system. In-flight maintenance work is dropped.
func (s *System) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	s.stopped = true
	s.net.Stop()
	s.sys.Close()
	if s.store != nil {
		s.store.Close()
	}
}

// Execute runs a transaction on one source (§2.1's single-source updates)
// and reports it into the maintenance pipeline. It returns the update's
// global sequence number.
func (s *System) Execute(src SourceID, writes ...Write) (UpdateID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.execLocked(func() (msg.Update, error) { return s.sys.Cluster.Execute(src, writes...) })
}

// execLocked commits one source transaction and feeds it to the
// integrator. Under durability the commit, the WAL append, and the
// injection happen atomically with respect to checkpoints.
func (s *System) execLocked(execute func() (msg.Update, error)) (UpdateID, error) {
	if !s.started || s.stopped {
		return 0, fmt.Errorf("whips: system is not running")
	}
	deliver := func(u msg.Update) {
		s.sys.TrackUpdate(u)
		s.net.Inject(msg.NodeIntegrator, u)
	}
	if s.host != nil {
		u, err := s.host.IngestExec(msg.NodeIntegrator, execute, deliver)
		if err != nil {
			return 0, err
		}
		s.maybeSnapshotLocked()
		return u.Seq, nil
	}
	u, err := execute()
	if err != nil {
		return 0, err
	}
	deliver(u)
	s.maybeTrimLocked()
	return u.Seq, nil
}

// maybeSnapshotLocked checkpoints after every Config.Durable.SnapshotEvery
// executed updates. Best effort: if the pipeline does not quiesce within
// the bounded wait the snapshot is skipped and retried a period later.
func (s *System) maybeSnapshotLocked() {
	if s.snapEvery <= 0 {
		return
	}
	s.sinceSnap++
	if s.sinceSnap < s.snapEvery {
		return
	}
	s.sinceSnap = 0
	_ = s.host.Checkpoint(func() bool { return s.net.Drain(5 * time.Second) })
}

// Checkpoint quiesces the pipeline (bounded by timeout) and writes a
// durable snapshot; the WAL prefix it covers is pruned and subsequent
// recovery starts from it. Requires Config.Durable.
func (s *System) Checkpoint(timeout time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.host == nil {
		return fmt.Errorf("whips: durability is not enabled")
	}
	return s.host.Checkpoint(func() bool { return s.net.Drain(timeout) })
}

// StateBytes marshals the full durable state without persisting it.
// Recovery-determinism tests compare two recoveries byte for byte.
// Requires Config.Durable.
func (s *System) StateBytes() ([]byte, error) {
	if s.host == nil {
		return nil, fmt.Errorf("whips: durability is not enabled")
	}
	return s.host.StateBytes()
}

// maybeTrimLocked periodically releases source version history below the
// warehouse's freshness low-water mark. Every view manager has processed
// (and will only ever query at or above) the states its view has reached,
// so states below MinUpto can never be read again — unless the run is
// recording states for the consistency checker, which replays from state 0.
func (s *System) maybeTrimLocked() {
	if s.gcEnabled {
		s.sinceGC++
		if s.sinceGC >= 64 {
			s.sinceGC = 0
			m, ok := s.sys.Warehouse.MinUpto()
			if !ok {
				// No materialized views: the warehouse is vacuously caught
				// up, so all source history below the current frontier is
				// releasable (the old zero-value MinUpto pinned it forever).
				m = s.sys.Cluster.Seq()
			}
			s.sys.Cluster.TruncateBefore(m)
		}
	}
}

// ExecuteGlobal runs a transaction that may span sources (§6.2).
func (s *System) ExecuteGlobal(writes ...Write) (UpdateID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.execLocked(func() (msg.Update, error) { return s.sys.Cluster.ExecuteGlobal(writes...) })
}

// Settle blocks until no message is in flight anywhere in the system —
// every inbox empty, every handler returned, no timers pending — or the
// timeout elapses. Unlike WaitFresh it says nothing about batching
// boundaries; it is the right barrier before tearing a system down.
func (s *System) Settle(timeout time.Duration) bool {
	return s.net.Drain(timeout)
}

// WaitFresh blocks until every view reflects the newest update it is
// expected to reach (batching boundaries such as complete-N are honoured),
// or the timeout elapses. It reports whether freshness was reached.
func (s *System) WaitFresh(timeout time.Duration) bool {
	return runtime.WaitUntil(timeout, s.sys.Fresh)
}

// Read returns a mutually consistent view of the named relations, served
// lock-free from the warehouse's current epoch snapshot, so the result can
// never expose a half-applied maintenance transaction and never blocks
// maintenance. The relations are frozen (immutable); Clone one to mutate.
func (s *System) Read(views ...ViewID) (map[ViewID]*Relation, error) {
	return s.sys.Warehouse.Read(views...)
}

// ReadAll returns every view, lock-free from the current epoch snapshot.
// The relations are frozen (immutable); Clone one to mutate.
func (s *System) ReadAll() map[ViewID]*Relation { return s.sys.Warehouse.ReadAll() }

// ReadAt returns the named views as of recorded warehouse state index
// (0 = initial) — historical queries over the state log. Requires
// Config.LogStates.
func (s *System) ReadAt(state int, views ...ViewID) (map[ViewID]*Relation, error) {
	return s.sys.Warehouse.ReadAt(state, views...)
}

// States reports how many warehouse states have been recorded.
func (s *System) States() int { return s.sys.Warehouse.States() }

// Query evaluates an ad-hoc selection/projection/aggregation over one view
// against the current epoch snapshot, with an epoch-invalidated LRU result
// cache. The answer's relation is frozen; Clone it to mutate.
func (s *System) Query(spec QuerySpec) (QueryResult, error) { return s.qe.Run(spec) }

// QueryAt evaluates spec against recorded warehouse state index (0 =
// initial), bypassing the result cache. Requires Config.LogStates; same
// window semantics as ReadAt.
func (s *System) QueryAt(state int, spec QuerySpec) (QueryResult, error) {
	snap, err := s.sys.Warehouse.SnapshotAt(state)
	if err != nil {
		return QueryResult{}, err
	}
	return s.qe.RunAt(snap, spec)
}

// Epoch returns the warehouse's current published epoch (the number of
// committed maintenance transactions), lock-free.
func (s *System) Epoch() int64 { return s.sys.Warehouse.Snapshot().Epoch }

// Consistency judges the run against the §2 definitions. It requires
// Config.LogStates.
func (s *System) Consistency() (consistency.Report, error) {
	return consistency.Check(s.sys.Cluster, s.sys.Views, s.sys.Warehouse.Log())
}

// Algorithm returns the merge algorithm in use.
func (s *System) Algorithm() Algorithm { return s.sys.Algorithm }

// MergeGroups returns the view→merge-group assignment (§6.1).
func (s *System) MergeGroups() map[ViewID]int {
	out := make(map[ViewID]int, len(s.sys.Groups))
	for k, v := range s.sys.Groups {
		out[k] = v
	}
	return out
}

// SystemStats is a consolidated observability snapshot.
type SystemStats struct {
	// SourceSeq is the newest committed source transaction.
	SourceSeq UpdateID
	// UpdatesRouted counts updates the integrator processed.
	UpdatesRouted int64
	// TxnsApplied counts committed warehouse transactions; TxnsPending are
	// submitted but blocked (dependencies or staged data).
	TxnsApplied int64
	TxnsPending int
	// Merges holds each merge process's counters.
	Merges []merge.Stats
	// Upto is each view's freshness frontier.
	Upto map[ViewID]UpdateID
}

// Stats returns a consolidated snapshot of the running system.
func (s *System) Stats() SystemStats {
	return SystemStats{
		SourceSeq:     s.sys.Cluster.Seq(),
		UpdatesRouted: s.sys.Integrator.Received(),
		TxnsApplied:   s.sys.Warehouse.Applied(),
		TxnsPending:   s.sys.Warehouse.PendingCount(),
		Merges:        s.MergeStats(),
		Upto:          s.sys.Warehouse.Upto(),
	}
}

// MergeStats returns each merge process's counters.
func (s *System) MergeStats() []merge.Stats {
	out := make([]merge.Stats, len(s.sys.Merges))
	for i, m := range s.sys.Merges {
		out[i] = m.Stats()
	}
	return out
}

// Warehouse exposes the warehouse substrate (reads, state log, counters).
func (s *System) Warehouse() *warehouse.Warehouse { return s.sys.Warehouse }

// Replica exposes the in-process read replica (Config.Replicate), or nil.
func (s *System) Replica() *warehouse.Replica { return s.sys.Replica }

// Cluster exposes the source cluster (current/versioned reads, history).
func (s *System) Cluster() *source.Cluster { return s.sys.Cluster }

// SourceSeq returns the sequence number of the newest committed source
// transaction.
func (s *System) SourceSeq() UpdateID { return s.sys.Cluster.Seq() }

// Insert builds a single-tuple insert write.
func Insert(relName string, schema *Schema, tuples ...Tuple) Write {
	return Write{Relation: relName, Delta: relation.InsertDelta(schema, tuples...)}
}

// Delete builds a single-tuple delete write.
func Delete(relName string, schema *Schema, tuples ...Tuple) Write {
	return Write{Relation: relName, Delta: relation.DeleteDelta(schema, tuples...)}
}

// Modify builds a write replacing oldT with newT.
func Modify(relName string, schema *Schema, oldT, newT Tuple) Write {
	return Write{Relation: relName, Delta: relation.ModifyDelta(schema, oldT, newT)}
}
