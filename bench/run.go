package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"whips/internal/msg"
	"whips/internal/query"
)

// Shares of --seconds each phase is sized for. Every phase executes a
// fixed number of updates — its share of --seconds times the workload's
// frozen paced or drain rate — so a run does the same work on every commit
// and takes --seconds at the commit that froze the rates. A traced run
// drains half decorated and half undecorated, so the tracing overhead comes
// from one process and one system.
const (
	warmupShare = 0.08
	pacedShare  = 0.62
	drainShare  = 0.30
)

// A run sets the system up at least minSetups times and, when one set-up
// is quick, goes on (up to maxSetups) until setupBudget is spent; setup_s is
// the median, so a millisecond set-up is not at the mercy of one GC.
const (
	minSetups   = 5
	maxSetups   = 400
	setupBudget = 1500 * time.Millisecond
)

// segments is how many equal parts the paced and drain phases are measured
// in; each reported metric is the median over the parts.
const segments = 5

// drainWindow is how many updates the drain phase keeps in flight (executed
// but not yet visible). Unbounded back-to-back injection does not measure a
// sustainable rate: the backlog grows until inboxes fill, the follower falls
// out of the primary's 64-epoch ring and is repaired with whole-state
// checkpoints, and the rate then depends on when those land. 32 in flight
// keeps every stage of the pipeline busy on two cores.
const drainWindow = 32

// visibleDeadline is how long an executed update may take to become visible
// before it counts as failed.
const visibleDeadline = 60 * time.Second

type runConfig struct {
	wl      *workload
	seed    int64
	seconds float64
	trace   bool
	// scale shrinks every relation and the set-up budget. The command always
	// runs at 1; only the tests and the consistency pre-pass go below.
	scale      float64
	outDir     string
	cpuProfile string
	memProfile string
}

// report is what one run measured.
type report struct {
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]float64
}

func (p *report) fail(format string, args ...any) { p.failN(1, format, args...) }

// failN counts n failed operations under one explanation.
func (p *report) failN(n int64, format string, args ...any) {
	p.failed += n
	if len(p.problems) < 20 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

type runner struct {
	cfg      runConfig
	inst     *instance
	r        *rig
	rep      *report
	executed int64 // updates executed so far; equals the newest sequence number
	// heapBase is the live heap just before the kept system was built: the
	// benchmark's own footprint, which heap_live_mb leaves out.
	heapBase float64
}

// count is how many updates a phase executes: its share of --seconds at
// rate updates per second.
func (c runConfig) count(share, rate float64) int64 {
	if n := int64(share * c.seconds * rate); n > 1 {
		return n
	}
	return 1
}

// run executes one benchmark run: setup → warm-up → paced → heap reading →
// drain → verify (→ recovery for the durable workload). The drain comes
// last because a backlog leaves high-water arrays behind (slices re-sliced
// from the front keep their stale slots reachable), and whether one formed
// decides whether the live heap afterwards reads 17 MB or 110 MB on
// fanout_spa; read after a paced phase the heap is the state the workload
// keeps.
func run(cfg runConfig) (*report, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	x := &runner{cfg: cfg, rep: &report{metrics: map[string]float64{}}}
	m, wl := x.rep.metrics, cfg.wl
	warmCount, pacedCount := cfg.count(warmupShare, wl.pacedRate), cfg.count(pacedShare, wl.pacedRate)
	drainCount := cfg.count(drainShare, wl.drainRate)
	// Every drain segment executes at least one update, hence the margin.
	if err := x.setup(warmCount + pacedCount + drainCount + 2*segments); err != nil {
		return nil, err
	}
	defer func() {
		x.r.close()
		x.r.removeData()
	}()

	x.paced(warmCount, false)

	if cfg.trace {
		if err := x.r.tr.begin(x.r); err != nil {
			return nil, err
		}
		p := x.paced(pacedCount, true)
		traced := x.drain(drainCount/2, false)
		x.r.tr.on.Store(false)
		untraced := x.drain(drainCount/2, false)
		m["trace.overhead_pct"] = 100 * (1 - traced.rate/untraced.rate)
		x.verify()
		if err := x.perLayer(traced, p); err != nil {
			return nil, err
		}
		return x.rep, nil
	}

	p := x.paced(pacedCount, true)
	m["fresh_p50_ms"] = segmentQuantile(p.fresh, 0.50) / 1e6
	m["exec_p50_us"] = segmentQuantile(p.exec, 0.50) / 1e3
	m["query_p50_us"] = segmentQuantile(p.query, 0.50) / 1e3
	fmt.Printf("paced: %d updates at %.0f/s, %d reader ops; fresh p99 %.3f ms, query p99 %.1f µs, gen.late_p99_us %.1f\n",
		len(p.fresh), wl.pacedRate, len(p.query), quantileOf(p.fresh, 0.99)/1e6, quantileOf(p.query, 0.99)/1e3,
		quantileOf(p.late, 0.99)/1e3)
	// The reader's result cache holds whatever the last queries returned; it
	// is dropped with the engine (no later phase queries) so the reading is
	// the state the system keeps, less the benchmark's own footprint.
	p, x.r.qe = nil, nil
	m["heap_live_mb"] = liveHeapMB() - x.heapBase

	d := x.drain(drainCount, true)
	m["updates_per_s"] = d.rate
	m["allocs_per_update"] = d.allocs
	m["alloc_kb_per_update"] = d.allocKB
	m["cpu_ms_per_update"] = d.cpuMs
	fmt.Printf("drain: %d updates in %.2f s\n", d.updates, float64(d.updates)/d.rate)

	x.verify()
	if wl.durable {
		x.reopen()
	}
	return x.rep, nil
}

// setup builds, preloads, evaluates, starts (and, where the workload has
// one, catches the follower up) repeatedly and keeps the last system, which
// will execute at most updates updates.
func (x *runner) setup(updates int64) error {
	var secs []float64
	var total time.Duration
	budget := time.Duration(float64(setupBudget) * x.cfg.scale) // tests shrink everything
	for len(secs) < minSetups || (total < budget && len(secs) < maxSetups) {
		if x.r != nil {
			x.r.close()
			x.r.removeData()
			x.r = nil
		}
		opt := rigOptions{outDir: x.cfg.outDir, vis: newVisibility(updates)}
		x.heapBase = liveHeapMB()
		t0 := time.Now()
		x.inst = x.cfg.wl.build(x.cfg.seed, x.cfg.scale)
		if x.cfg.trace {
			opt.tracer = &tracer{}
		}
		r, err := newRig(x.cfg.wl, x.inst, opt)
		if err != nil {
			return err
		}
		total += time.Since(t0)
		secs = append(secs, time.Since(t0).Seconds())
		x.r = r
	}
	x.rep.metrics["setup_s"] = medianFloat(secs)
	return nil
}

// step executes the generator's next transaction.
func (x *runner) step() (msg.Update, bool) {
	src, ws := x.inst.gen.next()
	x.rep.attempted++
	u, err := x.r.execute(src, ws)
	if err != nil {
		x.rep.fail("execute: %v", err)
		return u, false
	}
	x.executed = int64(u.Seq)
	if x.executed >= int64(len(x.r.vis.at)) {
		x.rep.fail("run exceeded the %d updates it was sized for", len(x.r.vis.at)-1)
		return u, false
	}
	return u, true
}

// settle waits until every executed update is visible; the ones that are
// not by the deadline are failed operations.
func (x *runner) settle() {
	if !x.r.quiesce(x.executed, visibleDeadline) {
		missing := x.executed - x.r.vis.seen.Load()
		x.rep.failN(missing, "%d updates not visible after %v", missing, visibleDeadline)
	}
}

type drainResult struct {
	updates  int64
	from, to int64   // phase window on the visibility clock
	rate     float64 // updates fully maintained per second
	allocs   float64
	allocKB  float64
	cpuMs    float64
}

// drain executes n updates as fast as the system maintains them, with at
// most drainWindow in flight; the clock stops when every view — and the
// replica or follower — reflects the last one.
func (x *runner) drain(n int64, profile bool) drainResult {
	if profile && x.cfg.cpuProfile != "" {
		if f, err := os.Create(x.cfg.cpuProfile); err == nil {
			defer f.Close()
			if err := pprof.StartCPUProfile(f); err == nil {
				defer pprof.StopCPUProfile()
			}
		}
	}
	// The phase is measured as `segments` equal parts and reports each
	// metric's median over them, so one disturbed stretch (a neighbour on the
	// host, an unlucky GC) does not move the result.
	total := drainResult{updates: n, from: x.r.vis.now()}
	var rates, allocs, allocKBs, cpus []float64
	for i := int64(0); i < segments; i++ {
		seg := x.drainSegment(n / segments)
		rates = append(rates, seg.rate)
		allocs = append(allocs, seg.allocs)
		allocKBs = append(allocKBs, seg.allocKB)
		cpus = append(cpus, seg.cpuMs)
	}
	total.to = x.r.vis.now()
	total.rate, total.allocs = medianFloat(rates), medianFloat(allocs)
	total.allocKB, total.cpuMs = medianFloat(allocKBs), medianFloat(cpus)
	if profile && x.cfg.memProfile != "" {
		if f, err := os.Create(x.cfg.memProfile); err == nil {
			pprof.Lookup("allocs").WriteTo(f, 0)
			f.Close()
		}
	}
	return total
}

func (x *runner) drainSegment(n int64) drainResult {
	if n < 1 {
		n = 1
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuNs(), time.Now()
	vis := x.r.vis
	stall := time.NewTimer(visibleDeadline)
	defer stall.Stop()
inject:
	for i := int64(0); i < n; i++ {
		for x.executed-vis.seen.Load() >= drainWindow {
			select {
			case <-vis.wake:
			case <-stall.C:
				break inject // settle reports what is missing
			}
		}
		x.step()
	}
	x.settle()
	el := time.Since(t0)
	c1 := cpuNs()
	runtime.ReadMemStats(&m1)
	return drainResult{
		updates: n,
		rate:    float64(n) / el.Seconds(),
		allocs:  float64(m1.Mallocs-m0.Mallocs) / float64(n),
		allocKB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e3 / float64(n),
		cpuMs:   float64(c1-c0) / 1e6 / float64(n),
	}
}

type pacedResult struct {
	first, last int64   // sequence numbers of the phase's updates
	from, to    int64   // phase window on the visibility clock
	fresh       []int64 // due → visible, ns, per update
	exec        []int64 // Execute call latency, ns
	late        []int64 // how late the generator sent each update, ns
	// Reader latencies in the order issued, and again by what answered:
	// result-cache hit or evaluated query.
	query        []int64
	hits, misses []int64
	readerErrs   int64
	gcPauseMaxNs uint64
}

// paced is the open loop: n updates are due at the workload's fixed rate
// regardless of how the system keeps up, and each is timed from when it was
// due. withReader runs the reader alongside (the warm-up leaves it out).
func (x *runner) paced(n int64, withReader bool) *pacedResult {
	p := &pacedResult{first: x.executed + 1}
	vis := x.r.vis
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		if withReader {
			x.reader(&stop, p)
		}
	}()

	interval := int64(float64(time.Second) / x.cfg.wl.pacedRate)
	pace := pacer{now: vis.now}
	start := vis.now()
	p.from = start
	for i := int64(0); i < n; i++ {
		due := start + i*interval
		pace.until(due)
		t0 := vis.now()
		u, ok := x.step()
		t1 := vis.now()
		if !ok {
			continue
		}
		vis.due[u.Seq] = due
		p.late = append(p.late, t0-due)
		p.exec = append(p.exec, t1-t0)
	}
	p.last = x.executed
	x.r.waitVisible(x.executed, visibleDeadline)
	p.to = vis.now()
	stop.Store(true)
	<-done
	x.rep.attempted += int64(len(p.query)) + p.readerErrs
	if p.readerErrs > 0 {
		x.rep.failN(p.readerErrs, "%d reader operations failed", p.readerErrs)
	}
	x.settle()

	runtime.ReadMemStats(&m1)
	for i := m0.NumGC; i < m1.NumGC && i < m0.NumGC+256; i++ {
		if ns := m1.PauseNs[i%256]; ns > p.gcPauseMaxNs {
			p.gcPauseMaxNs = ns
		}
	}
	for s := p.first; s <= p.last; s++ {
		if at := vis.at[s].Load(); at != 0 && vis.due[s] != 0 {
			p.fresh = append(p.fresh, at-vis.due[s])
		}
	}
	return p
}

// reader runs the workload's operation cycle against the serving endpoint
// until stop: open loop at readerRate, or closed loop when the rate is 0.
func (x *runner) reader(stop *atomic.Bool, p *pacedResult) {
	vis := x.r.vis
	ops := x.inst.ops
	views := x.r.sys.Warehouse.Snapshot().Views()
	var interval int64
	if x.cfg.wl.readerRate > 0 {
		interval = int64(float64(time.Second) / x.cfg.wl.readerRate)
	}
	start := vis.now()
	for i := 0; !stop.Load(); i++ {
		if interval > 0 {
			if wait := start + int64(i)*interval - vis.now(); wait > 0 {
				time.Sleep(time.Duration(wait))
				if stop.Load() {
					return
				}
			}
		}
		spec := ops[i%len(ops)](i)
		var err error
		var res query.Result
		t0 := vis.now()
		if spec == nil {
			_, err = x.r.sys.Warehouse.Read(views...)
		} else {
			res, err = x.r.qe.Run(*spec)
		}
		dt := vis.now() - t0
		if err != nil {
			p.readerErrs++
			continue
		}
		p.query = append(p.query, dt)
		switch {
		case spec == nil:
		case res.Cached:
			p.hits = append(p.hits, dt)
		default:
			p.misses = append(p.misses, dt)
		}
	}
}

// pacer waits for absolute times on the visibility clock. time.Sleep
// overshoots (about 0.25 ms on an idle 2-core VM, more under load), which
// at hundreds of updates per second would make every update late; so the
// pacer sleeps short by the overshoot it has been seeing and spins for the
// remainder (yielding there would hand the processor to whichever node is
// runnable and come back late again).
type pacer struct {
	now       func() int64
	overshoot int64
}

func (p *pacer) until(due int64) {
	const slack = 50_000 // ns kept for the spin
	if d := due - p.now() - p.overshoot - slack; d > 0 {
		t0 := p.now()
		time.Sleep(time.Duration(d))
		if over := p.now() - t0 - d; over < 1_000_000 { // a stall is not an overshoot
			p.overshoot += (over - p.overshoot) / 8
		}
	}
	for p.now() < due {
	}
}

// liveHeapMB is HeapAlloc after a forced collection, system still live.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
