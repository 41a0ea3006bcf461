package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"whips/internal/durable"
	"whips/internal/msg"
	"whips/internal/query"
	"whips/internal/repl"
	"whips/internal/runtime"
	"whips/internal/system"
	"whips/internal/warehouse"
	"whips/internal/wire"
)

// visibility records, per update sequence number, when the update was due
// and when it became visible at the workload's serving endpoint. Times are
// nanoseconds since base.
type visibility struct {
	base time.Time
	due  []int64        // written by the injector only
	at   []atomic.Int64 // written by the commit observer / follower callback
	seen atomic.Int64   // updates made visible so far
	// wake is signalled (without blocking) whenever seen advances, for the
	// drain phase's bounded window.
	wake chan struct{}

	// Follower endpoint: a commit becomes visible only when the follower has
	// applied its epoch. pending maps epoch → rows until that happens.
	mu       sync.Mutex
	pending  map[int64][]msg.UpdateID
	folEpoch int64
	// commitAt is when the update's warehouse transaction committed (equal
	// to at[] unless the endpoint is a follower); lagMax is the largest
	// primary-head − applied-epoch distance any follower frame advertised.
	commitAt []atomic.Int64
	lagMax   atomic.Int64
}

// newVisibility sizes the arrays for a run of n updates (sequence numbers
// start at 1). A run's update count is fixed by --seconds and the frozen
// rates, so the caller allocates this before the set-up clock starts and the
// benchmark's own footprint stays out of setup_s and heap_live_mb.
func newVisibility(n int64) *visibility {
	return &visibility{
		base:     time.Now(),
		due:      make([]int64, n+1),
		at:       make([]atomic.Int64, n+1),
		commitAt: make([]atomic.Int64, n+1),
		pending:  make(map[int64][]msg.UpdateID),
		wake:     make(chan struct{}, 1),
	}
}

func (v *visibility) now() int64 { return int64(time.Since(v.base)) }

func (v *visibility) mark(rows []msg.UpdateID, now int64) {
	for _, s := range rows {
		if int(s) < len(v.at) && v.at[s].CompareAndSwap(0, now) {
			v.seen.Add(1)
		}
	}
	select {
	case v.wake <- struct{}{}:
	default:
	}
}

func (v *visibility) committed(rows []msg.UpdateID, now int64) {
	for _, s := range rows {
		if int(s) < len(v.commitAt) {
			v.commitAt[s].CompareAndSwap(0, now)
		}
	}
}

// recordEpoch notes which updates epoch carries; they become visible when
// the follower reports that epoch applied (or at once, if it already has —
// a stream repaired from the warehouse's ring can run ahead of the commit
// observer).
func (v *visibility) recordEpoch(epoch int64, rows []msg.UpdateID, now int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if epoch <= v.folEpoch {
		v.mark(rows, now)
		return
	}
	v.pending[epoch] = rows
}

func (v *visibility) followerApplied(applied, head int64) {
	now := v.now()
	if lag := head - applied; lag > v.lagMax.Load() {
		v.lagMax.Store(lag)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for e := v.folEpoch + 1; e <= applied; e++ {
		if rows, ok := v.pending[e]; ok {
			v.mark(rows, now)
			delete(v.pending, e)
		}
	}
	if applied > v.folEpoch {
		v.folEpoch = applied
	}
}

// rig is one assembled, running system plus everything the workload hangs
// off it: the durable host, the TCP follower, the query engine over the
// serving endpoint. It mirrors whips.New/Execute wiring (the facade gives no
// hook to decorate nodes), with zero modeled delay and no obs pipeline.
type rig struct {
	wl   *workload
	inst *instance
	sys  *system.System
	rt   *runtime.Network
	qe   *query.Engine
	vis  *visibility
	tr   *tracer // nil in untraced runs

	host      *durable.Host
	store     *durable.Store
	dataDir   string
	sinceSnap int
	sinceGC   int

	prim   *repl.Primary
	ln     net.Listener
	serve  sync.WaitGroup
	fol    *repl.Follower
	folRep *warehouse.Replica
}

type rigOptions struct {
	outDir    string
	tracer    *tracer
	logStates bool
	// vis is the visibility record sized for the run, allocated by the caller
	// outside any timed section.
	vis *visibility
	// dataDir, when set, reopens an existing durable directory instead of
	// creating a fresh one (recovery measurement); it is then not removed.
	dataDir string
}

var dataDirSeq atomic.Int64

func newRig(wl *workload, inst *instance, opt rigOptions) (r *rig, err error) {
	r = &rig{wl: wl, inst: inst, vis: opt.vis, tr: opt.tracer}
	if r.tr != nil {
		r.tr.now = r.vis.now
	}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	clock := func() int64 { return time.Now().UnixNano() }
	cfg := system.Config{
		Sources:        inst.sources,
		Views:          inst.views,
		Commit:         system.Sequential,
		LogStates:      opt.logStates,
		Clock:          clock,
		CommitObserver: r.onCommit,
		// The warehouse keeps its replication ring only with Replicate set,
		// so the follower workload carries the in-process replica as well.
		Replicate: wl.serve != atWarehouse,
	}
	if r.sys, err = system.Build(cfg); err != nil {
		return r, err
	}
	nodes := r.sys.Nodes()
	if wl.durable {
		if err = r.openDurable(nodes, opt); err != nil {
			return r, err
		}
	}
	if r.tr != nil {
		nodes = r.tr.wrap(nodes)
	}
	r.rt = runtime.New(nodes)
	r.rt.Start()

	var src query.Source = r.sys.Warehouse
	switch wl.serve {
	case atReplica:
		src = r.sys.Replica
	case atFollower:
		if err = r.startFollower(); err != nil {
			return r, err
		}
		src = r.folRep
	}
	r.qe = query.New(src, query.WithClock(clock))
	return r, nil
}

// openDurable mirrors the Durable branch of whips.New: open the store,
// build the host over the raw nodes and replay whatever the directory holds.
func (r *rig) openDurable(nodes []msg.Node, opt rigOptions) error {
	parts, missing := r.sys.DurableNodes()
	if len(missing) > 0 {
		return fmt.Errorf("bench: managers without state capture: %v", missing)
	}
	r.dataDir = opt.dataDir
	if r.dataDir == "" {
		r.dataDir = fmt.Sprintf("%s/data-%s-%d-%d", opt.outDir, r.wl.name, os.Getpid(), dataDirSeq.Add(1))
	}
	store, err := durable.Open(durable.StoreConfig{Dir: r.dataDir, Fsync: durable.FsyncBatch})
	if err != nil {
		return err
	}
	r.store = store
	byID := make(map[string]msg.Node, len(nodes))
	for _, n := range nodes {
		byID[n.ID()] = n
	}
	dparts := make(map[string]durable.Durable, len(parts))
	for name, p := range parts {
		dparts[name] = p
	}
	r.host = durable.NewHost(durable.HostConfig{
		Store: store,
		Nodes: byID,
		Parts: dparts,
		OnExec: func(u msg.Update) error {
			if err := r.sys.Cluster.Replay(u); err != nil {
				return err
			}
			r.sys.TrackUpdate(u)
			return nil
		},
	})
	return r.host.Recover()
}

// startFollower serves the warehouse's replication feed on loopback TCP and
// attaches one real follower, then waits for its catch-up checkpoint.
func (r *rig) startFollower() error {
	r.prim = repl.NewPrimary(repl.PrimaryConfig{Source: r.sys.Warehouse})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.ln = ln
	r.serve.Add(1)
	go func() {
		defer r.serve.Done()
		r.prim.Serve(ln)
	}()
	addr := ln.Addr().String()
	r.folRep = warehouse.NewReplica()
	r.fol = repl.NewFollower(repl.FollowerConfig{
		Name:    "bench-follower",
		Dial:    func() (io.ReadWriteCloser, error) { return net.Dial("tcp", addr) },
		Replica: r.folRep,
		Backoff: wire.Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond, Seed: 1},
		OnApply: r.vis.followerApplied,
	})
	if !runtime.WaitUntil(30*time.Second, r.folRep.Ready) {
		return fmt.Errorf("bench: follower never caught up")
	}
	return nil
}

// onCommit runs on the warehouse commit path, after the new epoch snapshot
// is published and the in-process replica (if any) has applied it.
func (r *rig) onCommit(info warehouse.CommitInfo) {
	now := r.vis.now()
	rows := info.Txn.Rows
	r.vis.committed(rows, now)
	epoch := r.sys.Warehouse.Snapshot().Epoch
	if r.wl.serve == atFollower {
		r.vis.recordEpoch(epoch, rows, now)
		// Hand the epoch to the TCP primary the way WithReplFeed would: the
		// ring already holds it, ReplSince copies it out.
		if d, ok := r.sys.Warehouse.ReplSince(epoch - 1); ok && len(d) > 0 {
			r.prim.OnCommit(d[len(d)-1])
		}
	} else {
		r.vis.mark(rows, now)
	}
	if r.tr != nil {
		r.tr.captureCommit(info, epoch)
	}
}

// execute commits one source transaction and feeds it to the integrator —
// the body of whips.System.Execute. Under durability the commit, the WAL
// append and the injection are atomic with respect to checkpoints. While
// tracing, the call is recorded as the update's exec span and the update
// travels in an envelope naming that span as its cause.
func (r *rig) execute(src msg.SourceID, writes []msg.Write) (msg.Update, error) {
	t := r.tr
	tracing := t != nil && t.on.Load()
	var sp span
	if tracing {
		sp = span{ID: t.nextID.Add(1), Layer: layerSource, Node: "driver", Kind: "exec", Out: 1}
		sp.Start = t.now()
		sp.Enq = sp.Start
	}
	commit := func() (msg.Update, error) { return r.sys.Cluster.Execute(src, writes...) }
	deliver := func(u msg.Update) {
		r.sys.TrackUpdate(u)
		var m any = u
		if tracing {
			m = traced{m: u, enq: t.now(), cause: sp.ID}
		}
		r.rt.Inject(msg.NodeIntegrator, m)
	}
	var u msg.Update
	var err error
	if r.host != nil {
		u, err = r.host.IngestExec(msg.NodeIntegrator, commit, deliver)
	} else if u, err = commit(); err == nil {
		deliver(u)
	}
	if err != nil {
		return u, err
	}
	if tracing {
		sp.End, sp.Key = t.now(), int64(u.Seq)
		t.recordExec(sp, u)
	}
	if r.host != nil {
		r.maybeSnapshot()
	} else {
		r.maybeTrim()
	}
	return u, nil
}

// maybeSnapshot checkpoints every snapEvery executed updates, like
// whips.Config.Durable.SnapshotEvery.
func (r *rig) maybeSnapshot() {
	r.sinceSnap++
	if r.wl.snapEvery <= 0 || r.sinceSnap < r.wl.snapEvery {
		return
	}
	r.sinceSnap = 0
	t0 := time.Now()
	err := r.host.Checkpoint(func() bool { return r.rt.Drain(5 * time.Second) })
	if r.tr != nil && err == nil {
		r.tr.checkpointNs = append(r.tr.checkpointNs, time.Since(t0).Nanoseconds())
	}
}

// maybeTrim releases source history below the warehouse's low-water mark
// every 64 updates, like the non-durable facade.
func (r *rig) maybeTrim() {
	r.sinceGC++
	if r.sinceGC < 64 {
		return
	}
	r.sinceGC = 0
	if m, ok := r.sys.Warehouse.MinUpto(); ok {
		r.sys.Cluster.TruncateBefore(m)
	}
}

// waitVisible blocks until n updates are visible at the serving endpoint.
func (r *rig) waitVisible(n int64, timeout time.Duration) bool {
	return runtime.WaitUntil(timeout, func() bool { return r.vis.seen.Load() >= n })
}

// quiesce waits until nothing is in flight anywhere: every executed update
// visible and the node network drained.
func (r *rig) quiesce(executed int64, timeout time.Duration) bool {
	return r.waitVisible(executed, timeout) && r.rt.Drain(timeout)
}

// close stops every goroutine the rig started and removes its data dir.
func (r *rig) close() {
	if r.fol != nil {
		r.fol.Close()
	}
	if r.prim != nil {
		r.prim.Close()
	}
	if r.ln != nil {
		r.ln.Close()
		r.serve.Wait()
	}
	if r.rt != nil {
		r.rt.Stop()
	}
	if r.sys != nil {
		r.sys.Close()
	}
	if r.store != nil {
		r.store.Close()
	}
}

// removeData deletes the durable directory (kept across close so a run can
// reopen it for the recovery measurement).
func (r *rig) removeData() {
	if r.dataDir != "" {
		os.RemoveAll(r.dataDir)
	}
}
