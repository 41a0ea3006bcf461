package main

import (
	"fmt"
	"path/filepath"
	"sort"
)

// maxUnattributedPct is how much of the median paced update's freshness the
// blocking path may leave unexplained before the traced run fails.
const maxUnattributedPct = 15

// perLayer turns a traced run's spans, captures and replays into the
// per-layer metrics, checks the attribution, prints the layer tables and
// writes the spans out.
func (x *runner) perLayer(drain drainResult, p *pacedResult) error {
	m := x.rep.metrics
	t, vis := x.r.tr, x.r.vis
	spans := t.allSpans()

	// Live layers, from the paced phase's spans.
	ps := aggregate(spans, p.from, p.to)
	n := ps.updates
	busy := func(l layer) float64 { return ratio(ps.layers[l].busyNs, n) / 1e3 }
	wait := func(l layer) float64 { return ratio(ps.layers[l].waitNs, ps.layers[l].msgs) / 1e3 }
	m["source.exec_us"] = quantileOf(ps.execNs, 0.5) / 1e3
	m["integrator.busy_us"], m["integrator.wait_us"] = busy(layerIntegrator), wait(layerIntegrator)
	m["integrator.msgs_out"] = ratio(ps.layers[layerIntegrator].out, n)
	m["viewmgr.busy_us"], m["viewmgr.wait_us"] = busy(layerViewmgr), wait(layerViewmgr)
	m["viewmgr.als_out"] = ratio(ps.layers[layerViewmgr].out, n)
	m["viewmgr.updates_per_al"] = ratio(ps.vmUpdates, ps.layers[layerViewmgr].out)
	m["merge.busy_us"], m["merge.wait_us"] = busy(layerMerge), wait(layerMerge)
	m["merge.msgs_in"] = ratio(ps.layers[layerMerge].msgs, n)
	m["merge.txns_out"] = ratio(ps.txns, n)
	m["merge.rows_per_txn"] = ratio(ps.txnRows, ps.txns)
	m["merge.time_in_vut_us"] = ratio(ps.vutNs, ps.vutRows) / 1e3
	for _, mp := range x.r.sys.Merges {
		if d := float64(mp.Stats().MaxRowsLive); d > m["merge.vut_depth_max"] {
			m["merge.vut_depth_max"] = d
		}
	}
	m["warehouse.busy_us"], m["warehouse.wait_us"] = busy(layerWarehouse), wait(layerWarehouse)
	m["warehouse.tuples_per_txn"] = ratio(ps.whTuples, ps.whTxns)
	var msgs, waitNs int64
	for l := layerIntegrator; l <= layerWarehouse; l++ {
		msgs += ps.layers[l].msgs
		waitNs += ps.layers[l].waitNs
	}
	m["runtime.msgs_per_update"] = ratio(msgs, n)
	m["runtime.hop_wait_us"] = ratio(waitNs, msgs) / 1e3

	// The follower segment, live: commit → applied, and how far it lagged.
	if x.r.fol != nil {
		var seg []int64
		for s := p.first; s <= p.last; s++ {
			if c, a := vis.commitAt[s].Load(), vis.at[s].Load(); c != 0 && a >= c {
				seg = append(seg, a-c)
			}
		}
		m["repl.commit_to_apply_us"] = quantileOf(seg, 0.5) / 1e3
		m["repl.epoch_lag_max"] = float64(vis.lagMax.Load())
	}

	// The reader, live.
	m["query.miss_us"] = quantileOf(p.misses, 0.5) / 1e3
	m["query.hit_us"] = quantileOf(p.hits, 0.5) / 1e3
	m["query.cache_hit_ratio"] = ratio(int64(len(p.hits)), int64(len(p.hits)+len(p.misses)))

	m["e2e.fresh_p99_ms"] = quantileOf(p.fresh, 0.99) / 1e6
	m["e2e.query_p99_us"] = quantileOf(p.query, 0.99) / 1e3
	m["proc.gc_pause_ms"] = float64(p.gcPauseMaxNs) / 1e6
	m["gen.late_p99_us"] = quantileOf(p.late, 0.99) / 1e3
	if len(t.checkpointNs) > 0 {
		m["durable.checkpoint_ms"] = quantileOf(t.checkpointNs, 0.5) / 1e6
	}

	m["trace.unattributed_pct"] = x.attribute(spans, p)

	// Isolated replays of the layers that are not nodes.
	x.readCost(m)
	for _, replay := range []func(map[string]float64) error{
		x.replayWire, x.replayRepl, x.replayDurable, x.replayRelation, x.replayExpr,
	} {
		if err := replay(m); err != nil {
			return err
		}
	}

	extra := map[string]string{
		"source":    fmt.Sprintf("%.0f (WAL record)", m["durable.bytes_per_update"]),
		"warehouse": fmt.Sprintf("%.0f (epoch frame)", m["wire.bytes_per_update"]),
	}
	printLayerTable("paced phase, per layer", ps, extra)
	printLayerTable("drain phase, per layer (the node with the largest busy share bounds updates_per_s)",
		aggregate(spans, drain.from, drain.to), nil)
	fmt.Printf("\nisolated replays of %d updates / %d commits: expr.delta %.1f µs, relation.cow_commit %.1f µs, repl.apply %.1f µs, wire %.1f+%.1f µs, durable.append %.1f µs\n",
		len(t.updates), len(t.epochs), m["expr.delta_us"], m["relation.cow_commit_us"], m["repl.apply_us"],
		m["wire.encode_us"], m["wire.decode_us"], m["durable.append_us"])

	if x.cfg.wl.durable {
		m["durable.recover_ms"] = x.reopen()
	}
	out := filepath.Join(x.cfg.outDir, "trace_"+x.cfg.wl.name+".jsonl")
	written, err := writeSpans(out, spans)
	if err != nil {
		return err
	}
	fmt.Printf("%d of %d spans written to %s\n", written, len(spans)-1, out)
	return nil
}

// attribute computes every paced update's blocking path and checks that,
// around the median freshness, layer busy + wait along the path explains
// the freshness. It returns the unexplained share in percent.
func (x *runner) attribute(spans []span, p *pacedResult) float64 {
	vis := x.r.vis
	whBySeq := make(map[int64]int64)
	for i := range spans {
		if sp := &spans[i]; sp.Layer == layerWarehouse && sp.Kind == "submit" {
			for _, row := range sp.Rows {
				whBySeq[int64(row)] = sp.ID
			}
		}
	}
	var paths []path
	for s := p.first; s <= p.last; s++ {
		due, commit, at := vis.due[s], vis.commitAt[s].Load(), vis.at[s].Load()
		if due == 0 || at == 0 {
			continue
		}
		if pt, ok := blockingPath(spans, whBySeq, s, due, commit, at); ok {
			paths = append(paths, pt)
		}
	}
	x.rep.attempted++
	if len(paths) < 10 {
		x.rep.fail("attribution: only %d of %d paced updates have a blocking path", len(paths), p.last-p.first+1)
		return 100
	}
	// The median update is one sample; average the middle tenth around it.
	sort.Slice(paths, func(i, j int) bool { return paths[i].total < paths[j].total })
	mid := paths[len(paths)*45/100 : len(paths)*55/100+1]
	var sum path
	for _, pt := range mid {
		sum.total += pt.total
		sum.late += pt.late
		sum.unattributed += pt.unattributed
		for l := range sum.busy {
			sum.busy[l] += pt.busy[l]
			sum.wait[l] += pt.wait[l]
		}
	}
	k := float64(len(mid)) * 1e3
	fmt.Printf("\nblocking path of the median paced update (mean of the %d updates around it): fresh %.1f µs\n", len(mid), float64(sum.total)/k)
	fmt.Printf("  %-11s %10s %10s\n", "layer", "busy µs", "wait µs")
	for l := layer(0); l < nLayers; l++ {
		if sum.busy[l]+sum.wait[l] > 0 {
			fmt.Printf("  %-11s %10.1f %10.1f\n", l, float64(sum.busy[l])/k, float64(sum.wait[l])/k)
		}
	}
	// The issue's three groups, as shares of the path the system is
	// responsible for (everything but the generator's lateness): compute in
	// the view managers; coordination (integrator and merge compute plus
	// every hop's wait, which is the runtime's); and storage and shipping.
	var hops int64
	for l := layerIntegrator; l <= layerWarehouse; l++ {
		hops += sum.wait[l]
	}
	system := float64(sum.total - sum.late)
	share := func(ns int64) float64 { return 100 * float64(ns) / system }
	fmt.Printf("  shares: expr+viewmgr %.1f%%, merge+integrator+runtime %.1f%%, warehouse+relation+repl+wire %.1f%%, source+durable %.1f%%\n",
		share(sum.busy[layerViewmgr]),
		share(sum.busy[layerMerge]+sum.busy[layerIntegrator]+hops),
		share(sum.busy[layerWarehouse]+sum.busy[layerRepl]+sum.wait[layerRepl]),
		share(sum.busy[layerSource]))
	pct := 100 * float64(sum.unattributed) / float64(sum.total)
	if pct < 0 {
		pct = -pct
	}
	fmt.Printf("  %-11s %10.1f\n  %-11s %10.1f  (%.1f%%)\n", "generator", float64(sum.late)/k, "unattributed", float64(sum.unattributed)/k, pct)
	if pct > maxUnattributedPct {
		x.rep.fail("attribution: %.1f%% of the median update's freshness is unattributed (limit %d%%)", pct, maxUnattributedPct)
	}
	return pct
}
