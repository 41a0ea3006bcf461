package main

import (
	"fmt"
	"math/rand"

	"whips/internal/expr"
	"whips/internal/msg"
	"whips/internal/query"
	"whips/internal/relation"
	"whips/internal/system"
)

// endpoint names where a workload's readers are served from, and so where
// an update has to arrive before it counts as visible.
type endpoint int

const (
	atWarehouse endpoint = iota // the primary warehouse's epoch snapshot
	atReplica                   // the in-process replica (Config.Replicate)
	atFollower                  // a repl.Follower's replica behind loopback TCP
)

// workload is one named benchmark workload. Everything an optimisation
// could be tempted to tune — sizes, rates, the query mix — is frozen here;
// only the seed varies between runs.
type workload struct {
	name string
	// level is the MVC level the consistency pre-pass must observe.
	level msg.Level
	// serve is where freshness is measured and readers are served.
	serve endpoint
	// durable runs the workload through the WAL and checkpoints every
	// snapEvery executed updates.
	durable   bool
	snapEvery int
	// drainRate is the back-to-back update rate (updates/s) measured at the
	// commit that defined the benchmark; it sizes the drain phase so that
	// phase takes its share of --seconds there. pacedRate is the open-loop
	// rate of the paced phase, about half of it.
	drainRate float64
	pacedRate float64
	// readerRate is the reader's open-loop rate (ops/s); 0 is a closed loop.
	readerRate float64
	// build makes the workload's inputs from a seed. scale shrinks every
	// relation (tests and the consistency pre-pass use scale < 1).
	build func(seed int64, scale float64) *instance
}

// instance is one seeded instantiation of a workload: preloaded sources,
// view definitions, the update generator and the reader's operation cycle.
type instance struct {
	sources []system.SourceDef
	views   []system.ViewDef
	gen     *generator
	// ops is the reader's fixed cycle; op i of the run is ops[i%len(ops)](i).
	// A nil spec means "Read every view".
	ops []func(i int) *query.Spec
}

// table tracks the live tuples of one base relation so the generator can
// alternate inserts and deletes: relation and view sizes stay at their
// preloaded level and per-update cost does not drift within a run.
type table struct {
	name   string
	schema *relation.Schema
	mk     func(key int, rng *rand.Rand) relation.Tuple
	live   []relation.Tuple
	next   int
	target int
	// fifo makes a delete remove the oldest live tuple instead of a random
	// one, so the table always holds a window of consecutive keys.
	fifo bool
}

// newTable preloads n tuples with keys first, first+1, ...
func newTable(name string, schema *relation.Schema, first, n int, rng *rand.Rand, mk func(int, *rand.Rand) relation.Tuple) *table {
	t := &table{name: name, schema: schema, mk: mk, next: first, target: n}
	for i := 0; i < n; i++ {
		t.live = append(t.live, mk(t.next, rng))
		t.next++
	}
	return t
}

func (t *table) relation() *relation.Relation {
	return relation.FromTuples(t.schema, t.live...)
}

// write is the table's next change: an insert of a fresh key when the table
// is at or below its preloaded size, otherwise a delete of a random (or,
// with fifo, the oldest) live tuple.
func (t *table) write(rng *rand.Rand) msg.Write {
	if len(t.live) <= t.target {
		tup := t.mk(t.next, rng)
		t.next++
		t.live = append(t.live, tup)
		return msg.Write{Relation: t.name, Delta: relation.InsertDelta(t.schema, tup)}
	}
	if t.fifo {
		tup := t.live[0]
		t.live = t.live[1:]
		return msg.Write{Relation: t.name, Delta: relation.DeleteDelta(t.schema, tup)}
	}
	i := rng.Intn(len(t.live))
	tup := t.live[i]
	t.live[i] = t.live[len(t.live)-1]
	t.live = t.live[:len(t.live)-1]
	return msg.Write{Relation: t.name, Delta: relation.DeleteDelta(t.schema, tup)}
}

// generator produces the update stream: a pure function of the seed. Which
// table a transaction writes, and whether it carries a second write, follow
// a fixed rotation, so the mix of transaction shapes — and with it the cost
// of a run — is the workload's; the seed decides payload values and which
// live tuple a delete removes.
type generator struct {
	rng    *rand.Rand
	source msg.SourceID
	tables []*table
	// twoWriteEvery makes every n-th transaction carry a second write, on
	// the next table (0 = never).
	twoWriteEvery int
	n             int
}

func (g *generator) next() (msg.SourceID, []msg.Write) {
	i := g.n % len(g.tables)
	g.n++
	ws := []msg.Write{g.tables[i].write(g.rng)}
	if g.twoWriteEvery > 0 && g.n%g.twoWriteEvery == 0 {
		ws = append(ws, g.tables[(i+1)%len(g.tables)].write(g.rng))
	}
	return g.source, ws
}

func (g *generator) sourceDef() system.SourceDef {
	rels := make(map[string]*relation.Relation, len(g.tables))
	for _, t := range g.tables {
		rels[t.name] = t.relation()
	}
	return system.SourceDef{ID: g.source, Relations: rels}
}

func scaled(n int, scale float64) int {
	if m := int(float64(n) * scale); m > 8 {
		return m
	}
	return 8
}

func view(id string, e expr.Expr, kind system.ManagerKind) system.ViewDef {
	return system.ViewDef{ID: msg.ViewID(id), Expr: e, Manager: kind}
}

// missCycle is the light reader's mix: a selection, a projection and a
// grouped aggregate over one view, each with a predicate constant that
// changes on every call so the result cache never answers. Three cost
// classes put the median inside the middle one and the 99th percentile
// inside the most expensive one, so neither sits on a boundary between
// classes.
func missCycle(v msg.ViewID, cmpAttr string, lo, span int, groupAttr, sumAttr string) []func(int) *query.Spec {
	where := func(i int) expr.Pred { return expr.Cmp(cmpAttr, expr.Lt, lo+i%span) }
	return []func(int) *query.Spec{
		func(i int) *query.Spec { return &query.Spec{View: v, Where: where(i)} },
		func(i int) *query.Spec { return &query.Spec{View: v, Where: where(i), Columns: []string{groupAttr}} },
		func(i int) *query.Spec {
			return &query.Spec{View: v, Where: where(i), GroupBy: []string{groupAttr},
				Aggs: []expr.AggSpec{{Op: expr.Sum, Attr: sumAttr, As: "total"}}}
		},
	}
}

// Frozen sizes and rates. They were calibrated once at the commit that
// added the benchmark (see README.md, "Calibration") and must not change
// in a PR that claims a gain.
const (
	fanoutViews  = 16
	fanoutTuples = 64

	joinTuples = 160

	bigTuples = 6000

	readTuples = 2500
)

var workloads = []*workload{
	{
		name: "fanout_spa", level: msg.Complete, serve: atReplica,
		drainRate: 2900, pacedRate: 900, readerRate: 250,
		build: buildFanout,
	},
	{
		name: "join_agg_pa", level: msg.Strong, serve: atWarehouse,
		drainRate: 345, pacedRate: 170, readerRate: 250,
		build: buildJoinAgg,
	},
	{
		name: "bigview_repl", level: msg.Complete, serve: atFollower,
		drainRate: 280, pacedRate: 95, readerRate: 100,
		build: buildBigView,
	},
	{
		name: "read_heavy_durable", level: msg.Complete, serve: atWarehouse,
		durable: true, snapEvery: 150,
		drainRate: 210, pacedRate: 100, readerRate: 0,
		build: buildReadHeavy,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// buildFanout: 16 Complete views, each a σ/π over the one shared relation
// S, so every update is relevant to every view and one VUT row waits on 16
// action lists (the paper's SPA worst case).
func buildFanout(seed int64, scale float64) *instance {
	rng := rand.New(rand.NewSource(seed))
	ss := relation.MustSchema("K:int", "G:int", "X:int")
	s := newTable("S", ss, 0, scaled(fanoutTuples, scale), rng, func(k int, r *rand.Rand) relation.Tuple {
		return relation.T(k, r.Intn(16), r.Intn(1000))
	})
	g := &generator{rng: rng, source: "src", tables: []*table{s}}
	scan := expr.Scan("S", ss)
	var views []system.ViewDef
	for i := 0; i < fanoutViews; i++ {
		var e expr.Expr
		if i < fanoutViews/2 {
			e = expr.MustSelect(scan, expr.Cmp("G", expr.Ne, i))
		} else {
			e = expr.MustProject(expr.MustSelect(scan, expr.Cmp("X", expr.Lt, 300+50*i)), "K", "X")
		}
		views = append(views, view(fmt.Sprintf("V%02d", i), e, system.Complete))
	}
	return &instance{
		sources: []system.SourceDef{g.sourceDef()},
		views:   views,
		gen:     g,
		ops:     missCycle("V00", "X", 400, 500, "G", "X"),
	}
}

// buildJoinAgg: 4 Batching views under PA over R⋈S⋈T — two grouped
// aggregates over the 3-way join and two selections over 2-way joins — with
// updates spread over the three relations and 20% two-write transactions.
func buildJoinAgg(seed int64, scale float64) *instance {
	rng := rand.New(rand.NewSource(seed))
	n := scaled(joinTuples, scale)
	// Join keys cycle with the tuple key rather than being drawn at random,
	// and a delete removes the oldest tuple, so each relation is always a
	// window of consecutive tuple keys and every join-key value has two
	// tuples (one has three) in it whatever the seed: the join fan-out, and
	// with it the cost and the allocation count of an update, is a property
	// of the workload and not of the seed (drawn at random, allocations per
	// update differed by 2.2% between seeds and by 0.001% within one). The
	// seed picks where the windows start — a multiple of the key and payload
	// cycles — and so every tuple's values.
	keys := n / 2
	first := 100 * keys * (1 + rng.Intn(1000))
	rs := relation.MustSchema("A:int", "B:int", "P:int")
	ss := relation.MustSchema("SK:int", "B:int", "C:int")
	ts := relation.MustSchema("C:int", "D:int", "Q:int")
	// Payloads P and Q decide which tuples pass the two selections; they
	// cycle too (37 is coprime to 100), so half pass whatever the seed.
	r := newTable("R", rs, first, n, rng, func(k int, r *rand.Rand) relation.Tuple {
		return relation.T(k, k%keys, 37*k%100)
	})
	s := newTable("S", ss, first, n, rng, func(k int, r *rand.Rand) relation.Tuple {
		return relation.T(k, k%keys, (3*k+k/keys)%keys)
	})
	t := newTable("T", ts, first, n, rng, func(k int, r *rand.Rand) relation.Tuple {
		return relation.T(k%keys, k, 37*k%100)
	})
	r.fifo, s.fifo, t.fifo = true, true, true
	g := &generator{rng: rng, source: "src", tables: []*table{r, s, t}, twoWriteEvery: 5}
	R, S, T := expr.Scan("R", rs), expr.Scan("S", ss), expr.Scan("T", ts)
	rst := expr.JoinAll(R, S, T)
	views := []system.ViewDef{
		view("AggB", expr.MustAggregate(rst, []string{"B"}, []expr.AggSpec{
			{Op: expr.Count, As: "n"}, {Op: expr.Sum, Attr: "D", As: "sumD"}}), system.Batching),
		view("AggC", expr.MustAggregate(rst, []string{"C"}, []expr.AggSpec{
			{Op: expr.Count, As: "n"}, {Op: expr.Sum, Attr: "A", As: "sumA"}}), system.Batching),
		view("SelRS", expr.MustSelect(expr.MustJoin(R, S), expr.Cmp("P", expr.Lt, 50)), system.Batching),
		view("SelST", expr.MustSelect(expr.MustJoin(S, T), expr.Cmp("Q", expr.Lt, 50)), system.Batching),
	}
	return &instance{
		sources: []system.SourceDef{g.sourceDef()},
		views:   views,
		gen:     g,
		ops:     missCycle("SelRS", "P", 10, 40, "B", "A"),
	}
}

// buildBigView: 2 Complete views that are σ-scans of one large relation
// (the whole relation and about half of it), single-tuple deltas. The
// maintenance arithmetic is trivial; the cost is in whatever is O(|view|).
func buildBigView(seed int64, scale float64) *instance {
	rng := rand.New(rand.NewSource(seed))
	bs := relation.MustSchema("K:int", "G:int", "X:int")
	b := newTable("B", bs, 0, scaled(bigTuples, scale), rng, func(k int, r *rand.Rand) relation.Tuple {
		return relation.T(k, r.Intn(16), r.Intn(1000))
	})
	g := &generator{rng: rng, source: "src", tables: []*table{b}}
	scan := expr.Scan("B", bs)
	views := []system.ViewDef{
		view("All", expr.MustSelect(scan, expr.Cmp("X", expr.Ge, 0)), system.Complete),
		view("Half", expr.MustSelect(scan, expr.Cmp("G", expr.Lt, 8)), system.Complete),
	}
	return &instance{
		sources: []system.SourceDef{g.sourceDef()},
		views:   views,
		gen:     g,
		ops:     missCycle("Half", "X", 400, 500, "G", "X"),
	}
}

// buildReadHeavy: 4 Complete views (2 selections, 1 join, 1 aggregate) over
// a fact relation F and a small static dimension D, run through the WAL.
// The reader is a closed loop over a fixed cycle of eight operations: a
// quarter are whole-warehouse Reads, half are repeated specs the result
// cache answers until a commit moves their view, and a quarter carry a
// fresh predicate constant and always evaluate. Sorted by cost that is
// Reads < hits < misses, so the median lies inside the hits and the 99th
// percentile inside the misses.
func buildReadHeavy(seed int64, scale float64) *instance {
	rng := rand.New(rand.NewSource(seed))
	n := scaled(readTuples, scale)
	fs := relation.MustSchema("K:int", "G:int", "H:int", "X:int")
	ds := relation.MustSchema("G:int", "L:int")
	f := newTable("F", fs, 0, n, rng, func(k int, r *rand.Rand) relation.Tuple {
		return relation.T(k, r.Intn(16), r.Intn(n/2), r.Intn(1000))
	})
	dim := relation.New(ds)
	for gval := 0; gval < 16; gval++ {
		if err := dim.Insert(relation.T(gval, gval%4), 1); err != nil {
			panic(err)
		}
	}
	g := &generator{rng: rng, source: "src", tables: []*table{f}}
	src := g.sourceDef()
	src.Relations["D"] = dim
	F, D := expr.Scan("F", fs), expr.Scan("D", ds)
	views := []system.ViewDef{
		view("Sel", expr.MustSelect(F, expr.Cmp("X", expr.Lt, 800)), system.Complete),
		view("Proj", expr.MustProject(expr.MustSelect(F, expr.Cmp("G", expr.Ge, 4)), "K", "G"), system.Complete),
		view("Join", expr.MustJoin(F, D), system.Complete),
		view("Agg", expr.MustAggregate(F, []string{"H"}, []expr.AggSpec{
			{Op: expr.Count, As: "n"}, {Op: expr.Sum, Attr: "X", As: "sumX"}}), system.Complete),
	}
	selFixed := func(int) *query.Spec { return &query.Spec{View: "Sel", Where: expr.Cmp("X", expr.Lt, 100)} }
	sumX := []expr.AggSpec{{Op: expr.Sum, Attr: "X", As: "total"}}
	ops := []func(int) *query.Spec{
		selFixed,
		func(i int) *query.Spec { return &query.Spec{View: "Sel", Where: expr.Cmp("X", expr.Lt, 101+i%600)} },
		func(int) *query.Spec { return &query.Spec{View: "Proj", Columns: []string{"G"}} },
		func(int) *query.Spec { return &query.Spec{View: "Join", GroupBy: []string{"L"}, Aggs: sumX} },
		func(int) *query.Spec { return nil },
		func(i int) *query.Spec {
			return &query.Spec{View: "Join", Where: expr.Cmp("X", expr.Lt, 101+i%600), GroupBy: []string{"L"}, Aggs: sumX}
		},
		selFixed,
		func(int) *query.Spec { return nil },
	}
	return &instance{sources: []system.SourceDef{src}, views: views, gen: g, ops: ops}
}
