package main

import (
	"bytes"
	"fmt"
	"time"

	"whips/internal/consistency"
	"whips/internal/expr"
	"whips/internal/repl"
	"whips/internal/warehouse"
)

// prepassUpdates is how many updates the consistency pre-pass executes on
// its scaled-down copy of the workload.
const prepassUpdates = 60

// check counts one oracle check as an attempted operation and a failed one
// when it does not hold.
func (x *runner) check(ok bool, format string, args ...any) {
	x.rep.attempted++
	if !ok {
		x.rep.fail(format, args...)
	}
}

// verify is the correctness oracle, run with the system quiesced.
func (x *runner) verify() {
	x.settle()
	sys := x.r.sys
	snap := sys.Warehouse.Snapshot()

	// Every view equals its definition evaluated over the final source state.
	db := sys.Cluster.DatabaseAt(sys.Cluster.Seq())
	for id, def := range sys.Views {
		want, err := expr.Eval(def, db)
		got, ok := snap.Relation(id)
		x.check(err == nil && ok && got.Equal(want), "view %s differs from its definition over the final source state (err=%v)", id, err)
	}

	// Replica and follower publish the primary's state, byte for byte.
	want := repl.Fingerprint(snap)
	for name, rep := range map[string]*warehouse.Replica{"replica": sys.Replica, "follower": x.r.folRep} {
		if rep == nil {
			continue
		}
		got := rep.Snapshot()
		x.check(got != nil && got.Epoch == snap.Epoch && repl.Fingerprint(got) == want,
			"%s fingerprint differs from the primary's at epoch %d", name, snap.Epoch)
	}

	x.prepass()
}

// prepass runs a short, scaled-down copy of the workload with the state log
// on and asks the checker for the MVC level the paper promises: complete
// under SPA, strong under PA.
func (x *runner) prepass() {
	inst := x.cfg.wl.build(x.cfg.seed, 0.1*x.cfg.scale)
	r, err := newRig(x.cfg.wl, inst, rigOptions{outDir: x.cfg.outDir, logStates: true, vis: newVisibility(prepassUpdates)})
	if err != nil {
		x.check(false, "consistency pre-pass: %v", err)
		return
	}
	defer func() {
		r.close()
		r.removeData()
	}()
	var n int64
	for i := 0; i < prepassUpdates; i++ {
		src, ws := inst.gen.next()
		if _, err := r.execute(src, ws); err != nil {
			x.check(false, "consistency pre-pass: execute: %v", err)
			return
		}
		n++
	}
	if !r.quiesce(n, visibleDeadline) {
		x.check(false, "consistency pre-pass did not quiesce")
		return
	}
	rep, err := consistency.Check(r.sys.Cluster, r.sys.Views, r.sys.Warehouse.Log())
	x.check(err == nil && rep.Level() >= x.cfg.wl.level,
		"consistency pre-pass: want %v MVC, got %v (%s, err=%v)", x.cfg.wl.level, rep.Level(), rep.Violation, err)
}

// reopen ends the durable workload: stop the system, reopen its data
// directory twice and compare the two recoveries byte for byte. The first
// reopen's duration is durable.recover_ms.
func (x *runner) reopen() float64 {
	x.r.close()
	var states [2][]byte
	var ms float64
	for i := range states {
		inst := x.cfg.wl.build(x.cfg.seed, x.cfg.scale)
		t0 := time.Now()
		r, err := newRig(x.cfg.wl, inst, rigOptions{outDir: x.cfg.outDir, dataDir: x.r.dataDir, vis: newVisibility(0)})
		if err != nil {
			x.check(false, "recovery %d: %v", i, err)
			return ms
		}
		if i == 0 {
			ms = float64(time.Since(t0).Nanoseconds()) / 1e6
		}
		states[i], err = r.host.StateBytes()
		got := r.sys.Cluster.Seq()
		r.close()
		x.check(err == nil && int64(got) == x.executed, "recovery %d: recovered to update %d, executed %d (err=%v)", i, got, x.executed, err)
	}
	x.check(bytes.Equal(states[0], states[1]), "two recoveries of the same directory differ")
	fmt.Printf("recovery: %.1f ms, state %d bytes\n", ms, len(states[0]))
	return ms
}
