// fleet.go assembles explorable harnesses for the paper's two theorem
// fleets — complete managers under SPA (Thm 4.1) and batching managers
// under PA (Thm 5.1) — with the full invariant check battery from DESIGN.md
// §5 wired into Harness.Check.
package sched

import (
	"fmt"
	"sort"

	"whips/internal/consistency"
	"whips/internal/merge"
	"whips/internal/msg"
	"whips/internal/obs"
	"whips/internal/system"
	"whips/internal/viewmgr"
	"whips/internal/warehouse"
	"whips/internal/workload"
)

// FleetConfig parameterizes a paper-schema fleet.
type FleetConfig struct {
	// Algo selects the theorem under test: "spa" (complete managers,
	// complete MVC required) or "pa" (batching managers, strong MVC
	// required).
	Algo string
	// Updates is the number of source transactions to inject.
	Updates int
	// Seed drives the workload generator. Schedule nondeterminism has its
	// own seed (Options.Seed); this one fixes the data.
	Seed int64
	// Crashable registers Rebuild hooks for the view managers and the
	// merge process, enabling crash/restart faults.
	Crashable bool
	// StateRestore recovers crashed nodes from checkpointed state
	// (MarshalState at crash, RestoreState on restart) instead of input-log
	// replay — the durable-snapshot recovery model. Requires Crashable.
	StateRestore bool
	// Pool shares a view-manager worker pool across fleets, so the
	// explorer can exercise the parallel delta path under every schedule.
	// The pool stays unbound (Map mode only): Handle still returns each
	// manager's finished work synchronously, so schedules remain
	// deterministic and replayable. The caller owns and closes it.
	Pool *viewmgr.Pool
	// Obs attaches an observability pipeline to the fleet's processes.
	// Rebuilt (post-crash) nodes share the same pipeline, so counters
	// accumulate across incarnations.
	Obs *obs.Pipeline
	// Replicate attaches an in-process read replica to each fleet, so
	// explored fault schedules produce the same repl_pub/repl_apply span
	// chains as live replicated runs (and the quiescence check verifies the
	// replica converged to the warehouse head).
	Replicate bool
	// SharedPlans maintains the fleet's views through the shared
	// maintenance-plan DAG (internal/plan) instead of per-view trees, so
	// explored schedules judge the DAG path against the same invariant
	// battery as the baseline.
	SharedPlans bool
	// SelfMaintain runs the fleet's complete managers as SelfMaintaining
	// (auxiliary-relation maintenance, zero source queries on the covered
	// path), so explored schedules judge self-maintenance against the same
	// invariant battery — and, in the equivalence tests, the same
	// fingerprints — as the replica-based baseline. spa only.
	SelfMaintain bool
	// MaxAuxRows bounds the self-maintaining managers' auxiliaries,
	// forcing the degraded/repair fallback path onto explored schedules.
	MaxAuxRows int
	// Inspect, when set, runs at the end of every schedule's quiescence
	// check after all invariants passed — equivalence tests use it to
	// fingerprint the terminal warehouse state sequence.
	Inspect func(*system.System)
}

// Fleet returns a Factory building fresh paper-schema fleets.
func Fleet(cfg FleetConfig) Factory {
	return func() (*Harness, error) {
		return buildFleet(cfg)
	}
}

func buildFleet(cfg FleetConfig) (*Harness, error) {
	var kind system.ManagerKind
	var wantLevel msg.Level
	switch cfg.Algo {
	case "spa":
		kind = system.Complete
		if cfg.SelfMaintain {
			kind = system.SelfMaintaining
		}
		wantLevel = msg.Complete
	case "pa":
		kind = system.Batching
		wantLevel = msg.Strong
	default:
		return nil, fmt.Errorf("sched: unknown fleet algo %q (use spa or pa)", cfg.Algo)
	}
	views := workload.PaperViews(kind)
	if cfg.Algo == "pa" {
		// Any positive compute cost makes the manager "busy", so updates
		// arriving meanwhile batch into one intertwined action list — the
		// §5 scenario. The explorer schedules the completion timer freely,
		// so batch boundaries themselves are explored.
		for i := range views {
			views[i].ComputeDelay = func(n int) int64 { return int64(n) }
		}
	}
	if cfg.SelfMaintain && cfg.Algo != "spa" {
		return nil, fmt.Errorf("sched: self-maintenance applies to the spa fleet only")
	}
	sys, err := system.Build(system.Config{
		Sources:     workload.PaperSources(),
		Views:       views,
		Commit:      system.Sequential,
		LogStates:   true,
		Pool:        cfg.Pool,
		Obs:         cfg.Obs,
		Replicate:   cfg.Replicate,
		SharedPlans: cfg.SharedPlans,
		MaxAuxRows:  cfg.MaxAuxRows,
	})
	if err != nil {
		return nil, err
	}

	n := cfg.Updates
	if n <= 0 {
		n = 4
	}
	gen := workload.NewGenerator(cfg.Seed, workload.PaperSources())
	inject := make([]msg.Outbound, 0, n)
	for i := 0; i < n; i++ {
		src, writes := gen.Txn()
		inject = append(inject, msg.Send(msg.NodeCluster, msg.ExecuteTxn{Source: src, Writes: writes}))
	}

	// live tracks the current incarnation of each crash-restartable
	// process, so the quiescence check inspects the rebuilt instance
	// rather than the pre-crash one.
	live := &liveNodes{merge: sys.Merges[0]}
	h := &Harness{
		Nodes:        sys.Nodes(),
		Inject:       inject,
		Check:        fleetCheck(cfg.Algo, wantLevel, sys, live, cfg.Inspect),
		StateRestore: cfg.StateRestore,
	}
	if cfg.Crashable {
		h.Rebuild = map[string]func() msg.Node{}
		initDB := sys.Cluster.DatabaseAt(0)
		for _, v := range views {
			v := v
			mc := viewmgr.Config{
				View:         v.ID,
				Expr:         v.Expr,
				Merge:        msg.NodeMerge(0),
				ComputeDelay: v.ComputeDelay,
				Pool:         cfg.Pool,
				Obs:          cfg.Obs,
				SharedDeltas: cfg.SharedPlans,
				MaxAuxRows:   cfg.MaxAuxRows,
			}
			h.Rebuild[msg.NodeViewManager(v.ID)] = func() msg.Node {
				var m viewmgr.Manager
				var err error
				switch kind {
				case system.SelfMaintaining:
					m, err = viewmgr.NewSelfMaintaining(mc, initDB)
				case system.Complete:
					m, err = viewmgr.NewComplete(mc, initDB)
				default:
					m, err = viewmgr.NewBatching(mc, initDB)
				}
				if err != nil {
					panic(fmt.Sprintf("sched: rebuilding manager %s: %v", v.ID, err))
				}
				return m
			}
		}
		algo := sys.Algorithm
		h.Rebuild[msg.NodeMerge(0)] = func() msg.Node {
			var mopts []merge.Option
			if cfg.Obs != nil {
				mopts = append(mopts, merge.WithObs(cfg.Obs))
			}
			m := merge.New(0, algo, merge.NewSequential(msg.NodeMerge(0), 0), mopts...)
			live.merge = m
			return m
		}
	}
	return h, nil
}

// liveNodes tracks current process incarnations across crash/restart.
type liveNodes struct {
	merge *merge.Merge
}

// fleetCheck is the terminal-trace invariant battery: the §2 consistency
// level required by the fleet's theorem, plus the §5 structural invariants
// — column order, atomic VUT-row commit, purge safety, and promptness.
func fleetCheck(algo string, wantLevel msg.Level, sys *system.System, live *liveNodes, inspect func(*system.System)) func() error {
	return func() error {
		log := sys.Warehouse.Log()
		rep, err := consistency.Check(sys.Cluster, sys.Views, log)
		if err != nil {
			return err
		}
		switch wantLevel {
		case msg.Complete:
			if !rep.Complete {
				return fmt.Errorf("SPA fleet not complete (Thm 4.1): %s", rep.Violation)
			}
		case msg.Strong:
			if !rep.Strong {
				return fmt.Errorf("PA fleet not strongly consistent (Thm 5.1): %s", rep.Violation)
			}
		}
		if err := checkColumnOrder(log); err != nil {
			return err
		}
		if err := checkAtomicRows(algo, sys, log); err != nil {
			return err
		}
		// Purge safety + promptness: at quiescence nothing may remain held
		// anywhere — every action list left the VUT, every row was purged,
		// and the warehouse parked nothing.
		st := live.merge.Stats()
		if st.HeldALs != 0 {
			return fmt.Errorf("promptness: %d action lists still held at quiescence", st.HeldALs)
		}
		if st.RowsLive != 0 {
			return fmt.Errorf("purge safety: %d VUT rows live at quiescence", st.RowsLive)
		}
		if p := sys.Warehouse.PendingCount(); p != 0 {
			return fmt.Errorf("promptness: %d transactions parked at the warehouse at quiescence", p)
		}
		// Replica convergence: the synchronously fed in-process replica must
		// serve exactly the warehouse's head epoch at quiescence.
		if sys.Replica != nil {
			if got, want := sys.Replica.Epoch(), sys.Warehouse.Snapshot().Epoch; got != want {
				return fmt.Errorf("replication: replica at epoch %d, warehouse at %d at quiescence", got, want)
			}
		}
		if inspect != nil {
			inspect(sys)
		}
		return nil
	}
}

// checkColumnOrder verifies §5 invariant 5: each view's applied frontier
// is nondecreasing across the warehouse state sequence — action lists from
// one view manager commit in generation order.
func checkColumnOrder(log []warehouse.StateRecord) error {
	last := map[msg.ViewID]msg.UpdateID{}
	for j, rec := range log {
		for v, upto := range rec.Upto {
			if upto < last[v] {
				return fmt.Errorf("column order: view %s regressed from %d to %d at warehouse state %d",
					v, last[v], upto, j)
			}
			last[v] = upto
		}
	}
	return nil
}

// checkAtomicRows verifies §5 invariant 7 (atomic VUT-row commit): every
// committed source update's actions are applied by exactly one warehouse
// transaction — never split, never duplicated, never dropped — and under
// SPA each transaction applies exactly one row (the warehouse visits every
// source state).
func checkAtomicRows(algo string, sys *system.System, log []warehouse.StateRecord) error {
	applied := map[msg.UpdateID]int{}
	for j, rec := range log {
		if j == 0 {
			continue // the initial-state record applies no rows
		}
		if algo == "spa" && len(rec.Rows) != 1 {
			return fmt.Errorf("atomicity: SPA transaction %d applied rows %v (want exactly one row)",
				j, rec.Rows)
		}
		for _, u := range rec.Rows {
			if prev, dup := applied[u]; dup {
				return fmt.Errorf("atomicity: update %d applied by warehouse states %d and %d", u, prev, j)
			}
			applied[u] = j
		}
	}
	var missing []msg.UpdateID
	for _, u := range sys.Cluster.Log() {
		if _, ok := applied[u.Seq]; !ok {
			missing = append(missing, u.Seq)
		}
	}
	if len(missing) > 0 {
		sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
		return fmt.Errorf("atomicity: committed updates %v never applied by any warehouse transaction", missing)
	}
	return nil
}
