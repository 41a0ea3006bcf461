package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"whips/internal/expr"
	"whips/internal/msg"
	"whips/internal/relation"
	"whips/internal/warehouse"
)

// layer is a product package seen from outside. The first five are measured
// live (spans around Handle / Execute); the rest only by isolated replay.
type layer uint8

const (
	layerSource layer = iota
	layerIntegrator
	layerViewmgr
	layerMerge
	layerWarehouse
	layerRepl // the commit → follower-apply segment of the blocking path
	nLayers
)

var layerNames = [nLayers]string{"source", "integrator", "viewmgr", "merge", "warehouse", "repl"}

func (l layer) String() string { return layerNames[l] }

func layerOf(id string) layer {
	switch {
	case id == msg.NodeIntegrator:
		return layerIntegrator
	case id == msg.NodeWarehouse:
		return layerWarehouse
	case strings.HasPrefix(id, "vm:"):
		return layerViewmgr
	case strings.HasPrefix(id, "merge:"):
		return layerMerge
	}
	return layerSource // the cluster node
}

// span is one timed call into a layer. Spans of one update share its
// sequence number (Key for update/REL/AL/exec spans, Rows for transaction
// spans); Cause is the span whose output this call consumed.
type span struct {
	ID    int64  `json:"id"`
	Cause int64  `json:"cause,omitempty"`
	Layer layer  `json:"-"`
	Node  string `json:"node"`
	Kind  string `json:"kind"` // exec, update, rel, al, submit, ack, other
	Key   int64  `json:"key"`  // update seq, or txn id for submit/ack
	// Rows are the VUT rows of the transaction a warehouse span applied or
	// a merge span submitted.
	Rows  []msg.UpdateID `json:"rows,omitempty"`
	Enq   int64          `json:"enq"` // when the message was handed to the runtime
	Start int64          `json:"start"`
	End   int64          `json:"end"`
	Out   int            `json:"out"`            // outbound messages produced
	Txns  int            `json:"txns,omitempty"` // warehouse transactions among them
	N     int64          `json:"n,omitempty"`    // tuples carried (delta size)
}

// traced is the envelope every message travels in while tracing: the time
// it was enqueued and the span that produced it, so the receiving node's
// wait is measured and the causal chain can be walked back.
type traced struct {
	m     any
	enq   int64
	cause int64
}

// captureCap bounds how many updates and commits a traced run keeps for the
// isolated replays.
const captureCap = 2000

// tracer owns the decorators and everything a traced run records. Spans
// stay in memory and are written out when the run ends.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Int64
	now    func() int64
	nodes  []*tracedNode

	// Written by the injector goroutine only.
	execSpans    []span
	checkpointNs []int64

	mu      sync.Mutex
	updates []msg.Update    // first captureCap updates executed while on
	epochs  []msg.ReplEpoch // first captureCap commits while on
	// epochRows is how many updates the captured commits cover (a PA
	// transaction may apply several VUT rows).
	epochRows int
	// Baselines taken at begin(), with the system quiesced: the state the
	// captured updates and commits apply on top of.
	baseDB   expr.MapDB
	baseSnap *warehouse.Snapshot
}

// wrap decorates every node. The decorator keeps the node's ID, so routing
// is unchanged.
func (t *tracer) wrap(nodes []msg.Node) []msg.Node {
	out := make([]msg.Node, len(nodes))
	for i, n := range nodes {
		tn := &tracedNode{inner: n, t: t, layer: layerOf(n.ID())}
		t.nodes = append(t.nodes, tn)
		out[i] = tn
	}
	return out
}

// begin switches tracing on. The caller has quiesced the system, so no
// undecorated message is in flight and the baselines are exact.
func (t *tracer) begin(r *rig) error {
	db := expr.MapDB{}
	for _, name := range r.sys.Cluster.Relations() {
		rel, _, err := r.sys.Cluster.Current(name)
		if err != nil {
			return err
		}
		db[name] = rel
	}
	t.baseDB = db
	t.baseSnap = r.sys.Warehouse.Snapshot()
	t.on.Store(true)
	return nil
}

func (t *tracer) recordExec(sp span, u msg.Update) {
	t.execSpans = append(t.execSpans, sp)
	t.mu.Lock()
	if len(t.updates) < captureCap {
		t.updates = append(t.updates, u)
	}
	t.mu.Unlock()
}

// captureCommit keeps the commit as the epoch delta a replica would apply.
func (t *tracer) captureCommit(info warehouse.CommitInfo, epoch int64) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.epochs) >= captureCap {
		return
	}
	e := msg.ReplEpoch{Epoch: epoch, Txn: info.Txn.ID, CommitAt: info.Now, Head: epoch}
	for _, w := range info.Txn.Writes {
		e.Writes = append(e.Writes, msg.ReplWrite{View: w.View, Upto: w.Upto, Delta: w.Delta})
	}
	t.epochs = append(t.epochs, e)
	t.epochRows += len(info.Txn.Rows)
}

// tracedNode times Handle from outside and stamps every outbound message.
// spans is touched only by the node's own goroutine.
type tracedNode struct {
	inner msg.Node
	t     *tracer
	layer layer
	spans []span
}

func (n *tracedNode) ID() string { return n.inner.ID() }

func (n *tracedNode) Handle(m any, now int64) []msg.Outbound {
	env, wrapped := m.(traced)
	if wrapped {
		m = env.m
	}
	if !n.t.on.Load() {
		return n.inner.Handle(m, now)
	}
	start := n.t.now()
	outs := n.inner.Handle(m, now)
	end := n.t.now()
	sp := span{ID: n.t.nextID.Add(1), Layer: n.layer, Node: n.inner.ID(), Enq: start, Start: start, End: end, Out: len(outs)}
	if wrapped {
		sp.Enq, sp.Cause = env.enq, env.cause
	}
	classify(m, &sp)
	for i := range outs {
		if st, ok := outs[i].Msg.(msg.SubmitTxn); ok {
			sp.Rows = append(sp.Rows, st.Txn.Rows...)
			sp.Txns++
		}
		outs[i].Msg = traced{m: outs[i].Msg, enq: end, cause: sp.ID}
	}
	n.spans = append(n.spans, sp)
	return outs
}

func deltaSize(d *relation.Delta) int64 {
	if d == nil {
		return 0
	}
	return d.Size()
}

func classify(m any, sp *span) {
	switch t := m.(type) {
	case msg.Update:
		sp.Kind, sp.Key = "update", int64(t.Seq)
	case msg.RelevantSet:
		sp.Kind, sp.Key = "rel", int64(t.Seq)
	case msg.ActionList:
		sp.Kind, sp.Key, sp.N = "al", int64(t.Upto), deltaSize(t.Delta)
	case msg.SubmitTxn:
		sp.Kind, sp.Key, sp.Rows = "submit", int64(t.Txn.ID), t.Txn.Rows
		for _, w := range t.Txn.Writes {
			sp.N += deltaSize(w.Delta)
		}
	case msg.CommitAck:
		sp.Kind, sp.Key = "ack", int64(t.ID)
	default:
		sp.Kind = "other"
	}
}

// allSpans gathers every span recorded so far, indexed by ID (IDs are
// dense from 1). Call only with the system quiesced.
func (t *tracer) allSpans() []span {
	out := make([]span, t.nextID.Load()+1)
	for _, sp := range t.execSpans {
		out[sp.ID] = sp
	}
	for _, n := range t.nodes {
		for _, sp := range n.spans {
			out[sp.ID] = sp
		}
	}
	return out
}

// layerStats is the Prakasha & Selvarani-shaped row for one layer over one
// phase: messages, compute, waiting.
type layerStats struct {
	msgs   int64
	busyNs int64
	waitNs int64
	out    int64
}

// phaseStats aggregates the spans that started inside [from, to).
type phaseStats struct {
	layers  [nLayers]layerStats
	updates int64 // exec spans in the window
	// merge-specific
	txns, txnRows, vutNs, vutRows int64
	// warehouse-specific
	whTxns, whTuples int64
	// viewmgr-specific
	vmUpdates int64
	execNs    []int64
}

func aggregate(spans []span, from, to int64) *phaseStats {
	ps := &phaseStats{}
	relAt := make(map[int64]int64) // update seq → REL arrival at the merge process
	for i := range spans {
		sp := &spans[i]
		if sp.ID == 0 || sp.Start < from || sp.Start >= to {
			continue
		}
		ls := &ps.layers[sp.Layer]
		ls.msgs++
		ls.busyNs += sp.End - sp.Start
		ls.waitNs += sp.Start - sp.Enq
		ls.out += int64(sp.Out)
		switch {
		case sp.Kind == "exec":
			ps.updates++
			ps.execNs = append(ps.execNs, sp.End-sp.Start)
		case sp.Layer == layerViewmgr && sp.Kind == "update":
			ps.vmUpdates++
		case sp.Layer == layerMerge && sp.Kind == "rel":
			relAt[sp.Key] = sp.Start
		case sp.Layer == layerWarehouse && sp.Kind == "submit":
			ps.whTxns++
			ps.whTuples += sp.N
		}
	}
	for i := range spans {
		sp := &spans[i]
		if sp.Layer != layerMerge || len(sp.Rows) == 0 || sp.Start < from || sp.Start >= to {
			continue
		}
		ps.txns += int64(sp.Txns)
		ps.txnRows += int64(len(sp.Rows))
		for _, row := range sp.Rows {
			if at, ok := relAt[int64(row)]; ok {
				ps.vutNs += sp.End - at
				ps.vutRows++
			}
		}
	}
	return ps
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// path is one update's blocking path: how its freshness divides into each
// layer's compute and waiting, the generator's lateness, and whatever the
// spans do not cover.
type path struct {
	total        int64
	busy, wait   [nLayers]int64
	late         int64
	unattributed int64
}

// blockingPath walks the causal chain back from the warehouse span that
// committed update seq. Chain intervals tile time without gaps (a message's
// enqueue stamp is its producer's Handle end), so clipped to [due, commit]
// they account for everything up to the commit; the follower segment
// [commit, visible] is charged to repl as waiting.
func blockingPath(spans []span, whBySeq map[int64]int64, seq, due, commit, visible int64) (path, bool) {
	p := path{total: visible - due}
	id, ok := whBySeq[seq]
	if !ok || p.total <= 0 {
		return p, false
	}
	// until is where the next interval down the chain starts; a span's
	// compute past it (the driver's exec span keeps running after it has
	// injected) is not on the path.
	until := commit
	clip := func(a, b int64) int64 {
		if a < due {
			a = due
		}
		if b > until {
			b = until
		}
		if b > a {
			return b - a
		}
		return 0
	}
	covered := int64(0)
	for id != 0 {
		sp := &spans[id]
		if sp.End <= due {
			break
		}
		b, w := clip(sp.Start, sp.End), clip(sp.Enq, sp.Start)
		until = sp.Enq
		p.busy[sp.Layer] += b
		p.wait[sp.Layer] += w
		covered += b + w
		if sp.Kind == "exec" {
			// Its own exec span, or — when the injector was held up, say by
			// a checkpoint inside the previous Execute — an earlier one's:
			// either way the time before it is the generator running late.
			if sp.Start > due {
				p.late = sp.Start - due
				covered += p.late
			}
			break
		}
		id = sp.Cause
	}
	if visible > commit {
		p.wait[layerRepl] += visible - commit
		covered += visible - commit
	}
	p.unattributed = p.total - covered
	return p, true
}

// maxSpansWritten caps the trace file (fanout_spa records 750 000 spans in
// a 24 s run, over 100 MB as JSON); the first spans are the paced phase's.
const maxSpansWritten = 200_000

// writeSpans dumps the first maxSpansWritten spans, one JSON object per line,
// and returns how many it wrote.
func writeSpans(pathname string, spans []span) (int, error) {
	f, err := os.Create(pathname)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		span
		Layer string `json:"layer"`
	}
	n := 0
	for _, sp := range spans {
		if sp.ID == 0 {
			continue
		}
		if n == maxSpansWritten {
			break
		}
		if err := enc.Encode(line{span: sp, Layer: sp.Layer.String()}); err != nil {
			return n, err
		}
		n++
	}
	if err := w.Flush(); err != nil {
		return n, err
	}
	return n, f.Close()
}

// printLayerTable prints messages, compute and waiting per layer for one
// phase, with each layer's share of all measured compute.
func printLayerTable(title string, ps *phaseStats, extra map[string]string) {
	var total int64
	for _, ls := range ps.layers {
		total += ls.busyNs
	}
	fmt.Printf("\n%s (%d updates)\n", title, ps.updates)
	fmt.Printf("  %-11s %12s %14s %9s %13s  %s\n", "layer", "msgs/update", "busy µs/update", "busy %", "wait µs/msg", "bytes/update")
	for l := layer(0); l < nLayers; l++ {
		ls := ps.layers[l]
		if ls.msgs == 0 {
			continue
		}
		fmt.Printf("  %-11s %12.2f %14.1f %9.1f %13.1f  %s\n", l,
			ratio(ls.msgs, ps.updates), ratio(ls.busyNs, ps.updates)/1e3,
			100*ratio(ls.busyNs, total), ratio(ls.waitNs, ls.msgs)/1e3, extra[l.String()])
	}
}
