package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"runtime"
	"time"

	"whips/internal/durable"
	"whips/internal/expr"
	"whips/internal/msg"
	"whips/internal/relation"
	"whips/internal/warehouse"
	"whips/internal/wire"
)

// The layers that are not nodes cannot be timed in place without editing
// them, so a traced run keeps the workload's own updates and commits and,
// with the system stopped, replays them through each layer's public
// functions in isolation. Every replay is single-threaded and starts from
// the state captured when tracing began.

func perOp(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total.Nanoseconds()) / float64(n)
}

// replayExpr runs every captured update through expr.DeltaWrites for every
// view, then applies it to the base relations (Relation.Apply), the way a
// view manager's replicas advance.
func (x *runner) replayExpr(m map[string]float64) error {
	t := x.r.tr
	db := t.baseDB
	var deltaTime, applyTime time.Duration
	var deltas, tuples int
	var m0, m1 runtime.MemStats
	var deltaMallocs uint64
	for _, u := range t.updates {
		ws := msg.ExprWrites(u.Writes)
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for _, v := range x.inst.views {
			d, err := expr.DeltaWrites(v.Expr, ws, db)
			if err != nil {
				return fmt.Errorf("replay expr: update %d view %s: %w", u.Seq, v.ID, err)
			}
			deltas++
			tuples += int(d.Size())
		}
		deltaTime += time.Since(t0)
		runtime.ReadMemStats(&m1)
		deltaMallocs += m1.Mallocs - m0.Mallocs
		t0 = time.Now()
		for _, w := range u.Writes {
			if err := db[w.Relation].Apply(w.Delta); err != nil {
				return fmt.Errorf("replay expr: update %d: %w", u.Seq, err)
			}
		}
		applyTime += time.Since(t0)
	}
	n := len(t.updates)
	m["expr.delta_us"] = perOp(deltaTime, n) / 1e3
	m["expr.delta_tuples_out"] = float64(tuples) / float64(max(n, 1))
	m["expr.allocs_per_delta"] = float64(deltaMallocs) / float64(max(deltas, 1))
	m["relation.apply_us"] = perOp(applyTime, n) / 1e3
	return nil
}

// replayRelation replays every captured commit the way the warehouse
// applies it — MutableCopy, Apply, Freeze per written view — and then
// probes and scans the largest resulting view.
func (x *runner) replayRelation(m map[string]float64) error {
	t := x.r.tr
	views := make(map[msg.ViewID]*relation.Relation)
	for _, id := range t.baseSnap.Views() {
		views[id], _ = t.baseSnap.Relation(id)
	}
	var cow time.Duration
	for _, e := range t.epochs {
		t0 := time.Now()
		scratch := make(map[msg.ViewID]*relation.Relation)
		for _, w := range e.Writes {
			r, ok := scratch[w.View]
			if !ok {
				r = views[w.View].MutableCopy()
				scratch[w.View] = r
			}
			if err := r.Apply(w.Delta); err != nil {
				return fmt.Errorf("replay relation: epoch %d view %s: %w", e.Epoch, w.View, err)
			}
		}
		for id, r := range scratch {
			views[id] = r.Freeze()
		}
		cow += time.Since(t0)
	}
	m["relation.cow_commit_us"] = perOp(cow, len(t.epochs)) / 1e3

	var big *relation.Relation
	for _, r := range views {
		if big == nil || r.Distinct() > big.Distinct() {
			big = r
		}
	}
	probes := big.Tuples()
	if len(probes) > 4096 {
		probes = probes[:4096]
	}
	var found int64
	t0 := time.Now()
	for round := 0; round < 8; round++ {
		for _, p := range probes {
			found += big.Count(p)
		}
	}
	m["relation.lookup_ns"] = perOp(time.Since(t0), 8*len(probes))
	const scans = 20
	t0 = time.Now()
	for i := 0; i < scans; i++ {
		big.Each(func(relation.Tuple, int64) bool { found++; return true })
	}
	m["relation.scan_us"] = perOp(time.Since(t0), scans) / 1e3
	if found == 0 {
		return fmt.Errorf("replay relation: probes found nothing")
	}
	return nil
}

// replayWire pushes every captured commit through the wire codec the way a
// session does: wire.Encode then gob on a long-lived stream, and back.
func (x *runner) replayWire(m map[string]float64) error {
	t := x.r.tr
	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	var encTime, decTime time.Duration
	var total int
	for _, e := range t.epochs {
		t0 := time.Now()
		wm, err := wire.Encode(e)
		if err == nil {
			err = enc.Encode(wire.Frame{From: "primary", To: "follower", Seq: uint64(e.Epoch), Msg: wm})
		}
		encTime += time.Since(t0)
		if err != nil {
			return fmt.Errorf("replay wire: encode epoch %d: %w", e.Epoch, err)
		}
		total += buf.Len()
		t0 = time.Now()
		var f wire.Frame
		if err = dec.Decode(&f); err == nil {
			_, err = wire.Decode(f.Msg)
		}
		decTime += time.Since(t0)
		if err != nil {
			return fmt.Errorf("replay wire: decode epoch %d: %w", e.Epoch, err)
		}
	}
	n := len(t.epochs)
	m["wire.encode_us"] = perOp(encTime, n) / 1e3
	m["wire.decode_us"] = perOp(decTime, n) / 1e3
	m["wire.bytes_per_update"] = float64(total) / float64(max(t.epochRows, 1))
	return nil
}

// replayRepl installs the baseline in a fresh replica and applies every
// captured commit to it.
func (x *runner) replayRepl(m map[string]float64) error {
	t := x.r.tr
	rep := warehouse.NewReplica()
	if err := rep.Install(t.baseSnap.ReplMsg(t.baseSnap.Epoch)); err != nil {
		return fmt.Errorf("replay repl: install: %w", err)
	}
	var apply time.Duration
	for _, e := range t.epochs {
		t0 := time.Now()
		err := rep.ApplyEpoch(e)
		apply += time.Since(t0)
		if err != nil {
			return fmt.Errorf("replay repl: %w", err)
		}
	}
	m["repl.apply_us"] = perOp(apply, len(t.epochs)) / 1e3
	return nil
}

// replayDurable appends every captured update to a fresh WAL the way
// Host.IngestExec does: wire.Encode, EncodeRecord, Store.Append.
func (x *runner) replayDurable(m map[string]float64) error {
	t := x.r.tr
	dir := fmt.Sprintf("%s/replay-wal-%d", x.cfg.outDir, os.Getpid())
	defer os.RemoveAll(dir)
	store, err := durable.Open(durable.StoreConfig{Dir: dir, Fsync: durable.FsyncBatch})
	if err != nil {
		return err
	}
	defer store.Close()
	var appendTime time.Duration
	var total int
	for _, u := range t.updates {
		t0 := time.Now()
		wm, err := wire.Encode(u)
		var payload []byte
		if err == nil {
			payload, err = durable.EncodeRecord(durable.Record{Kind: durable.RecExec, To: msg.NodeIntegrator, Msg: wm})
		}
		if err == nil {
			_, err = store.Append(payload)
		}
		appendTime += time.Since(t0)
		if err != nil {
			return fmt.Errorf("replay durable: update %d: %w", u.Seq, err)
		}
		total += len(payload)
	}
	n := len(t.updates)
	m["durable.append_us"] = perOp(appendTime, n) / 1e3
	m["durable.bytes_per_update"] = float64(total) / float64(max(n, 1))
	return nil
}

// readCost times the whole-warehouse Read the closed-loop reader issues.
func (x *runner) readCost(m map[string]float64) {
	wh := x.r.sys.Warehouse
	views := wh.Snapshot().Views()
	const reads = 20000
	t0 := time.Now()
	for i := 0; i < reads; i++ {
		if _, err := wh.Read(views...); err != nil {
			x.rep.fail("warehouse read: %v", err)
			return
		}
	}
	m["warehouse.read_us"] = perOp(time.Since(t0), reads) / 1e3
}
