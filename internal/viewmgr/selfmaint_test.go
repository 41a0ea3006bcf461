package viewmgr

import (
	"math/rand"
	"strings"
	"testing"

	"whips/internal/expr"
	"whips/internal/msg"
	"whips/internal/obs"
	"whips/internal/relation"
	"whips/internal/source"
)

// obsRig is the standard rig plus an observability pipeline, so tests can
// assert on the manager's source-query and retry counters.
type obsRig struct {
	*rig
	pipe *obs.Pipeline
}

func newObsRig(t *testing.T, e expr.Expr, mk func(cfg Config, init expr.Database) Manager) *obsRig {
	t.Helper()
	c := source.NewCluster(nil)
	c.AddSource("s1")
	c.AddSource("s2")
	for _, r := range []struct {
		src  msg.SourceID
		name string
		sch  *relation.Schema
	}{{"s1", "R", rSchema}, {"s1", "S", sSchema}, {"s2", "T", tSchema}} {
		if err := c.CreateRelation(r.src, r.name, r.sch); err != nil {
			t.Fatal(err)
		}
	}
	pipe := obs.NewPipeline()
	cfg := Config{View: "V", Expr: e, Merge: "merge:0", Obs: pipe}
	mgr := mk(cfg, c.DatabaseAt(0))
	return &obsRig{rig: &rig{t: t, cluster: c, node: source.NewNode(c), mgr: mgr}, pipe: pipe}
}

func (r *obsRig) counter(name string) int64 {
	return r.pipe.Reg().Counter(name, "view", "V").Value()
}

func newSelfMaintaining(maxAux int) func(cfg Config, init expr.Database) Manager {
	return func(cfg Config, init expr.Database) Manager {
		cfg.MaxAuxRows = maxAux
		m, err := NewSelfMaintaining(cfg, init)
		if err != nil {
			panic(err)
		}
		return m
	}
}

// TestSelfMaintainingZeroSourceQueries is the headline property: on a
// key-covered workload (unbounded auxiliaries) the manager never messages
// the sources — every delta is computed from auxiliary state alone.
func TestSelfMaintainingZeroSourceQueries(t *testing.T) {
	r := newObsRig(t, v1(), newSelfMaintaining(0))
	if r.mgr.Level() != msg.Complete || r.mgr.ID() != "vm:V" {
		t.Errorf("level/id = %v %q", r.mgr.Level(), r.mgr.ID())
	}
	r.exec("R", ins(rSchema, 1, 2))
	r.exec("S", ins(sSchema, 2, 3))
	r.exec("S", ins(sSchema, 2, 9))
	r.exec("R", del(rSchema, 1, 2))
	r.exec("S", del(sSchema, 2, 3))
	if len(r.als) != 5 {
		t.Fatalf("ALs = %d, want 5 (one per update)", len(r.als))
	}
	for i, al := range r.als {
		if al.From != al.Upto || al.Upto != msg.UpdateID(i+1) || al.Level != msg.Complete {
			t.Errorf("AL %d = %+v", i, al)
		}
	}
	r.expectView(v1())
	if q := r.counter("vm_source_queries_total"); q != 0 {
		t.Errorf("vm_source_queries_total = %d, want 0 on the covered path", q)
	}
	if ld := r.counter("vm_local_deltas_total"); ld != 5 {
		t.Errorf("vm_local_deltas_total = %d, want 5", ld)
	}
	if b := r.pipe.Reg().Gauge("vm_aux_bytes", "view", "V").Value(); b <= 0 {
		t.Errorf("vm_aux_bytes = %d, want > 0 with resident auxiliaries", b)
	}
}

// TestSelfMaintainingOracle is the randomized equivalence oracle: a
// bounded SelfMaintaining manager (auxiliaries degrade and repair
// mid-stream, so the workload flips between covered and uncovered) must
// emit tuple-for-tuple the action-list stream CompleteQuery emits for the
// same update schedule.
func TestSelfMaintainingOracle(t *testing.T) {
	for _, maxAux := range []int{0, 1, 3} {
		sm := newObsRig(t, v1(), newSelfMaintaining(maxAux))
		cq := newObsRig(t, v1(), func(cfg Config, init expr.Database) Manager {
			return NewCompleteQuery(cfg)
		})
		rng := rand.New(rand.NewSource(7))
		repaired := false
		for step := 0; step < 120; step++ {
			rel, sch := "R", rSchema
			if rng.Intn(2) == 1 {
				rel, sch = "S", sSchema
			}
			d := relation.InsertDelta(sch, relation.T(rng.Intn(4), rng.Intn(4)))
			sm.exec(rel, d)
			cq.exec(rel, d)
			if sm.counter("vm_source_queries_total") > 0 {
				repaired = true
			}
		}
		if len(sm.als) != len(cq.als) {
			t.Fatalf("maxAux=%d: AL counts differ: self-maintaining %d, query %d",
				maxAux, len(sm.als), len(cq.als))
		}
		for i := range sm.als {
			a, b := sm.als[i], cq.als[i]
			if a.From != b.From || a.Upto != b.Upto || a.Level != b.Level || !a.Delta.Equal(b.Delta) {
				t.Fatalf("maxAux=%d: AL %d diverges:\n self-maintaining %v %v\n query            %v %v",
					maxAux, i, a, a.Delta, b, b.Delta)
			}
		}
		sm.expectView(v1())
		// Covered/uncovered classification: unbounded runs never query;
		// tightly bounded runs must have exercised the fallback (the bases
		// grow far past one row) and also recovered to the local path.
		q := sm.counter("vm_source_queries_total")
		if maxAux == 0 && q != 0 {
			t.Errorf("unbounded run issued %d source queries", q)
		}
		if maxAux == 1 && !repaired {
			t.Error("maxAux=1 run never exercised the degraded/repair fallback")
		}
		if maxAux == 1 && sm.counter("vm_local_deltas_total") == 0 {
			t.Error("maxAux=1 run never returned to the local (covered) path")
		}
	}
}

// failOnce wraps the source node, failing the first n query responses so
// tests can exercise the bounded re-issue path.
type failOnce struct {
	inner *source.Node
	fails int
}

func (f *failOnce) Handle(m any, now int64) []msg.Outbound {
	out := f.inner.Handle(m, now)
	if f.fails > 0 {
		for i, o := range out {
			if resp, ok := o.Msg.(msg.QueryResponse); ok {
				f.fails--
				out[i].Msg = msg.QueryResponse{ID: resp.ID, Err: "injected source failure"}
				break
			}
		}
	}
	return out
}

// pumpVia drains outbound traffic, routing cluster-bound messages through
// the (possibly failing) source wrapper.
func pumpVia(t *testing.T, mgr Manager, src *failOnce, als *[]msg.ActionList, outs []msg.Outbound) {
	t.Helper()
	for len(outs) > 0 {
		var next []msg.Outbound
		for _, o := range outs {
			switch o.To {
			case msg.NodeCluster:
				next = append(next, src.Handle(o.Msg, 0)...)
			case "vm:V":
				next = append(next, mgr.Handle(o.Msg, 0)...)
			case "merge:0":
				*als = append(*als, o.Msg.(msg.ActionList))
			default:
				t.Fatalf("unexpected destination %q", o.To)
			}
		}
		outs = next
	}
}

// TestCompleteQueryRetriesFailedResponse is the satellite-1 regression: a
// transient source failure must be re-issued under a fresh QID — the
// action-list stream is unchanged, one retry is counted, and the
// pre-retry response is dropped as stale.
func TestCompleteQueryRetriesFailedResponse(t *testing.T) {
	run := func(fails int) ([]msg.ActionList, *obsRig) {
		r := newObsRig(t, v1(), func(cfg Config, init expr.Database) Manager {
			return NewCompleteQuery(cfg)
		})
		src := &failOnce{inner: r.node, fails: fails}
		writes := []struct {
			rel string
			d   *relation.Delta
		}{
			{"R", ins(rSchema, 1, 2)},
			{"S", ins(sSchema, 2, 3)},
			{"S", del(sSchema, 2, 3)},
		}
		for _, w := range writes {
			owner, _ := r.cluster.Owner(w.rel)
			u, err := r.cluster.Execute(owner, msg.Write{Relation: w.rel, Delta: w.d})
			if err != nil {
				t.Fatal(err)
			}
			pumpVia(t, r.mgr, src, &r.als, r.mgr.Handle(u, 0))
		}
		return r.als, r
	}
	clean, _ := run(0)
	faulty, r := run(1)
	if len(clean) != len(faulty) {
		t.Fatalf("AL counts differ: clean %d, faulty %d", len(clean), len(faulty))
	}
	for i := range clean {
		if !clean[i].Delta.Equal(faulty[i].Delta) || clean[i].Upto != faulty[i].Upto {
			t.Fatalf("AL %d diverges after a retried query: %v vs %v", i, clean[i], faulty[i])
		}
	}
	if got := r.counter("vm_query_retries_total"); got != 1 {
		t.Errorf("vm_query_retries_total = %d, want 1", got)
	}
}

// TestSelfMaintainingRetriesRepairQuery exercises the same bounded
// re-issue on the auxiliary-repair path.
func TestSelfMaintainingRetriesRepairQuery(t *testing.T) {
	r := newObsRig(t, v1(), newSelfMaintaining(1))
	src := &failOnce{inner: r.node}
	grow := func(rel string, sch *relation.Schema, n int) {
		for i := 0; i < n; i++ {
			owner, _ := r.cluster.Owner(rel)
			u, err := r.cluster.Execute(owner, msg.Write{Relation: rel, Delta: ins(sch, i, i)})
			if err != nil {
				t.Fatal(err)
			}
			pumpVia(t, r.mgr, src, &r.als, r.mgr.Handle(u, 0))
		}
	}
	grow("S", sSchema, 3) // past the bound: S aux degrades
	src.fails = 1
	grow("R", rSchema, 1) // forces a repair round; its first answer fails
	if got := r.counter("vm_query_retries_total"); got != 1 {
		t.Errorf("vm_query_retries_total = %d, want 1", got)
	}
	if len(r.als) != 4 {
		t.Fatalf("ALs = %d, want 4", len(r.als))
	}
	r.expectView(v1())
}

// TestQueryRetriesExhaust proves the bound on every source-query path — the
// CompleteQuery head round, the QueryBatching frontier query and the
// SelfMaintaining repair round: a permanently failing source panics after
// maxQueryRetries re-issues instead of retrying forever.
func TestQueryRetriesExhaust(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(cfg Config, init expr.Database) Manager
		warm int // S inserts answered by a healthy source before it fails
	}{
		{"complete-query", func(cfg Config, init expr.Database) Manager {
			return NewCompleteQuery(cfg)
		}, 0},
		{"query-batching", func(cfg Config, init expr.Database) Manager {
			initial, err := expr.Eval(cfg.Expr, init)
			if err != nil {
				panic(err)
			}
			return NewQueryBatching(cfg, initial)
		}, 0},
		// Three S rows outgrow the one-row bound, so the next update
		// waits on a repair round for the S auxiliary.
		{"self-maintaining-repair", newSelfMaintaining(1), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newObsRig(t, v1(), tc.mk)
			src := &failOnce{inner: r.node}
			exec := func(rel string, d *relation.Delta) {
				owner, _ := r.cluster.Owner(rel)
				u, err := r.cluster.Execute(owner, msg.Write{Relation: rel, Delta: d})
				if err != nil {
					t.Fatal(err)
				}
				pumpVia(t, r.mgr, src, &r.als, r.mgr.Handle(u, 0))
			}
			for i := 0; i < tc.warm; i++ {
				exec("S", ins(sSchema, i, i))
			}
			src.fails = maxQueryRetries + 2
			defer func() {
				p := recover()
				if p == nil {
					t.Fatal("permanent source failure must panic after the retry bound")
				}
				if !strings.Contains(p.(string), "failed") {
					t.Errorf("panic = %v", p)
				}
			}()
			exec("R", ins(rSchema, 1, 2))
		})
	}
}

// TestQueryBatchingRetriesFailedResponse covers the second panic site: the
// batching manager re-issues its frontier query and ships the same diff.
func TestQueryBatchingRetriesFailedResponse(t *testing.T) {
	c := source.NewCluster(nil)
	c.AddSource("s1")
	_ = c.CreateRelation("s1", "R", rSchema)
	_ = c.CreateRelation("s1", "S", sSchema)
	e := v1()
	initial, _ := expr.Eval(e, c.DatabaseAt(0))
	pipe := obs.NewPipeline()
	m := NewQueryBatching(Config{View: "V", Expr: e, Merge: "merge:0", Obs: pipe}, initial)
	node := source.NewNode(c)

	u1, _ := c.Execute("s1", msg.Write{Relation: "R", Delta: ins(rSchema, 1, 2)})
	out := m.Handle(u1, 0)
	q := out[0].Msg.(msg.QueryRequest)
	// Fail the first answer; the manager must re-issue with a fresh QID.
	out = m.Handle(msg.QueryResponse{ID: q.ID, Err: "injected"}, 1)
	if len(out) != 1 {
		t.Fatalf("retry expected, got %v", out)
	}
	q2 := out[0].Msg.(msg.QueryRequest)
	if q2.ID == q.ID {
		t.Error("retry must use a fresh QID")
	}
	if q2.AsOf != q.AsOf {
		t.Errorf("retry AsOf = %d, want %d", q2.AsOf, q.AsOf)
	}
	// The stale answer to the failed QID is dropped.
	goodForOld := node.Handle(q, 0)[0].Msg.(msg.QueryResponse)
	if o := m.Handle(goodForOld, 2); len(o) != 0 {
		t.Errorf("stale response produced %v", o)
	}
	resp := node.Handle(q2, 0)[0].Msg.(msg.QueryResponse)
	out = m.Handle(resp, 3)
	al := out[0].Msg.(msg.ActionList)
	if al.From != 1 || al.Upto != 1 {
		t.Errorf("AL after retry = %v", al)
	}
	if got := pipe.Reg().Counter("vm_query_retries_total", "view", "V").Value(); got != 1 {
		t.Errorf("vm_query_retries_total = %d, want 1", got)
	}
}

// TestSelfMaintainingMidStreamCoverageFlips drives the bound so coverage
// flips both directions: auxiliaries degrade when the base outgrows the
// bound and return to covered once deletions shrink it back.
func TestSelfMaintainingMidStreamCoverageFlips(t *testing.T) {
	r := newObsRig(t, expr.Scan("S", sSchema), newSelfMaintaining(2))
	for i := 0; i < 4; i++ {
		r.exec("S", ins(sSchema, i, i)) // grows past 2: degrades after the 3rd
	}
	queriesAfterGrowth := r.counter("vm_source_queries_total")
	if queriesAfterGrowth == 0 {
		t.Fatal("bound crossing never degraded the auxiliary")
	}
	for i := 0; i < 3; i++ {
		r.exec("S", del(sSchema, i, i)) // shrinks back under the bound
	}
	local := r.counter("vm_local_deltas_total")
	r.exec("S", ins(sSchema, 9, 9))
	if r.counter("vm_local_deltas_total") != local+1 {
		t.Error("manager did not return to the covered (local) path after shrinking")
	}
	if r.counter("vm_source_queries_total") != queriesAfterGrowth+1 {
		// The shrink phase itself runs degraded (cardinality stays over the
		// bound until deletions land), so a few repair queries are expected;
		// what matters is none happen after re-covering.
		t.Logf("source queries = %d after growth %d", r.counter("vm_source_queries_total"), queriesAfterGrowth)
	}
	r.expectView(expr.Scan("S", sSchema))
	if len(r.als) != 8 {
		t.Fatalf("ALs = %d, want 8", len(r.als))
	}
}

// TestSelfMaintainingRejectsSharedDeltas: the DAG already computes deltas
// upstream, so the combination must refuse at construction.
func TestSelfMaintainingRejectsSharedDeltas(t *testing.T) {
	init := expr.MapDB{"S": relation.New(sSchema)}
	cfg := Config{View: "V", Expr: expr.Scan("S", sSchema), Merge: "merge:0", SharedDeltas: true}
	if _, err := NewSelfMaintaining(cfg, init); err == nil {
		t.Error("SharedDeltas + self-maintenance must fail")
	}
}

// TestSelfMaintainingStateRoundTrip checkpoints a manager mid-stream,
// restores into a fresh instance, and proves the restored manager produces
// the same tail of the action-list stream — including a degraded
// auxiliary surviving the round trip as degraded.
func TestSelfMaintainingStateRoundTrip(t *testing.T) {
	r := newObsRig(t, v1(), newSelfMaintaining(2))
	r.exec("R", ins(rSchema, 1, 2))
	r.exec("S", ins(sSchema, 2, 3))
	r.exec("S", ins(sSchema, 2, 4))
	r.exec("S", ins(sSchema, 2, 5)) // S aux (3 rows) degrades
	sm := r.mgr.(*SelfMaintaining)
	if len(sm.degraded()) == 0 {
		t.Fatal("test setup: expected a degraded auxiliary")
	}
	b, err := sm.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSelfMaintaining(Config{View: "V", Expr: v1(), Merge: "merge:0", MaxAuxRows: 2},
		r.cluster.DatabaseAt(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(b); err != nil {
		t.Fatal(err)
	}
	if got, want := fresh.degraded(), sm.degraded(); len(got) != len(want) || got[0] != want[0] {
		t.Fatalf("restored degraded set = %v, want %v", got, want)
	}
	if fresh.q.nextQID != sm.q.nextQID {
		t.Errorf("restored NextQID = %d, want %d", fresh.q.nextQID, sm.q.nextQID)
	}
	// Drive both managers through the same next update; streams must match.
	r.mgr = fresh
	prev := len(r.als)
	r.exec("R", ins(rSchema, 7, 2))
	if len(r.als) != prev+1 {
		t.Fatalf("restored manager emitted %d ALs", len(r.als)-prev)
	}
	r.expectView(v1())
}

// TestQueryManagerStateRoundTrip is the satellite-2 unit check: the two
// query-based managers marshal and restore their backlog and QID
// bookkeeping, refuse checkpoints mid-round, and abandon in-flight rounds
// on restore.
func TestQueryManagerStateRoundTrip(t *testing.T) {
	c := source.NewCluster(nil)
	c.AddSource("s1")
	_ = c.CreateRelation("s1", "R", rSchema)
	_ = c.CreateRelation("s1", "S", sSchema)
	node := source.NewNode(c)

	cq := NewCompleteQuery(Config{View: "V", Expr: v1(), Merge: "merge:0"})
	u1, _ := c.Execute("s1", msg.Write{Relation: "R", Delta: ins(rSchema, 1, 2)})
	out := cq.Handle(u1, 0)
	if _, err := cq.MarshalState(); err == nil {
		t.Error("CompleteQuery must refuse a checkpoint with a round in flight")
	}
	for _, o := range out { // answer the round
		for _, resp := range node.Handle(o.Msg, 0) {
			cq.Handle(resp.Msg, 0)
		}
	}
	b, err := cq.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewCompleteQuery(Config{View: "V", Expr: v1(), Merge: "merge:0"})
	if err := fresh.RestoreState(b); err != nil {
		t.Fatal(err)
	}
	if fresh.q.nextQID != cq.q.nextQID {
		t.Errorf("restored NextQID = %d, want %d", fresh.q.nextQID, cq.q.nextQID)
	}
	if fresh.q.pending != nil || fresh.q.answers != nil {
		t.Error("restore must abandon any in-flight round")
	}

	initial, _ := expr.Eval(v1(), c.DatabaseAt(0))
	qb := NewQueryBatching(Config{View: "V", Expr: v1(), Merge: "merge:0"}, initial)
	u2, _ := c.Execute("s1", msg.Write{Relation: "S", Delta: ins(sSchema, 2, 3)})
	out = qb.Handle(u2, 0)
	if _, err := qb.MarshalState(); err == nil {
		t.Error("QueryBatching must refuse a checkpoint with a query in flight")
	}
	resp := node.Handle(out[0].Msg, 0)[0].Msg.(msg.QueryResponse)
	qb.Handle(resp, 0)
	b, err = qb.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	freshQB := NewQueryBatching(Config{View: "V", Expr: v1(), Merge: "merge:0"}, relation.New(initial.Schema()))
	if err := freshQB.RestoreState(b); err != nil {
		t.Fatal(err)
	}
	if freshQB.sentUpto != qb.sentUpto || freshQB.q.nextQID != qb.q.nextQID || freshQB.q.active() {
		t.Errorf("restored batching state = upto %d qid %d inflight %v",
			freshQB.sentUpto, freshQB.q.nextQID, freshQB.q.active())
	}
	if !freshQB.lastSent.Equal(qb.lastSent) {
		t.Error("restored lastSent diverges")
	}
}
