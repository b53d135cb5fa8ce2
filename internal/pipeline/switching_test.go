package pipeline

import (
	"strings"
	"testing"

	"autopipe/internal/cluster"
	"autopipe/internal/model"
	"autopipe/internal/netsim"
	"autopipe/internal/partition"
	"autopipe/internal/sim"
)

// harness runs an engine with a plan switch injected mid-run and returns
// the wall time plus the engine.
func runWithSwitch(t *testing.T, newPlan *partition.Plan, mode SwitchMode, batches int) (float64, *AsyncEngine) {
	t.Helper()
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.Uniform(8, 5e10, 100000)
	eng := sim.NewEngine()
	net := netsim.New(eng, cl)
	cfg := Config{
		Model: m, Cluster: cl,
		Plan:   partition.EvenSplit(m.NumLayers(), workerIDs(4)),
		Scheme: netsim.RingAllReduce,
	}
	e, err := NewAsync(eng, net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start(batches)
	if newPlan != nil {
		switched := false
		e.OnBatchDone(func(batch int, at sim.Time) {
			if batch >= batches/2 && !switched && !e.Switching() {
				switched = true
				if err := e.ApplyPlan(*newPlan, mode, nil); err != nil {
					t.Errorf("ApplyPlan: %v", err)
				}
			}
		})
	}
	eng.RunAll()
	if e.Completed() != batches {
		t.Fatalf("deadlock after switch: %d/%d", e.Completed(), batches)
	}
	return float64(eng.Now()), e
}

func boundaryShiftPlan() partition.Plan {
	// EvenSplit of 8 layers over 4 workers is [0,2)[2,4)[4,6)[6,8); move
	// one boundary: [0,3)[3,4)[4,6)[6,8) — only workers 0 and 1 change.
	return partition.Plan{
		Stages: []partition.Stage{
			{Start: 0, End: 3, Workers: []int{0}},
			{Start: 3, End: 4, Workers: []int{1}},
			{Start: 4, End: 6, Workers: []int{2}},
			{Start: 6, End: 8, Workers: []int{3}},
		},
		InFlight: 4,
	}
}

func TestMigrationVolume(t *testing.T) {
	m := model.Uniform(8, 1e9, 100)
	old := partition.EvenSplit(8, workerIDs(4))
	if MigrationVolume(m, old, old) != 0 {
		t.Fatal("no-op switch has non-zero migration volume")
	}
	np := boundaryShiftPlan()
	// Layer 2 moves from worker 1 to worker 0: one layer's params.
	want := m.Layers[2].ParamBytes()
	if got := MigrationVolume(m, old, np); got != want {
		t.Fatalf("MigrationVolume = %d, want %d", got, want)
	}
}

func TestBoundaryCompatible(t *testing.T) {
	old := partition.EvenSplit(8, workerIDs(4))
	if !BoundaryCompatible(old, boundaryShiftPlan()) {
		t.Fatal("boundary shift not recognised as compatible")
	}
	merged := partition.Plan{
		Stages: []partition.Stage{
			{Start: 0, End: 4, Workers: []int{0, 1}},
			{Start: 4, End: 6, Workers: []int{2}},
			{Start: 6, End: 8, Workers: []int{3}},
		},
		InFlight: 4,
	}
	if BoundaryCompatible(old, merged) {
		t.Fatal("merge wrongly considered boundary-compatible")
	}
}

func TestFineGrainedSwitchCompletes(t *testing.T) {
	np := boundaryShiftPlan()
	_, e := runWithSwitch(t, &np, SwitchFineGrained, 24)
	if e.SwitchCount != 1 {
		t.Fatalf("SwitchCount = %d", e.SwitchCount)
	}
	if !e.Plan().Equal(np) {
		t.Fatalf("plan after switch = %s, want %s", e.Plan(), np)
	}
	if e.MigratedBytes == 0 {
		t.Fatal("no migration volume recorded")
	}
}

func TestRestartSwitchCompletes(t *testing.T) {
	np := boundaryShiftPlan()
	_, e := runWithSwitch(t, &np, SwitchRestart, 24)
	if !e.Plan().Equal(np) {
		t.Fatalf("plan after restart switch = %s", e.Plan())
	}
}

func TestFineGrainedCheaperThanRestart(t *testing.T) {
	// The paper's §4.4 claim: layer-by-layer switching with weight
	// stashing avoids the drain + refill stall of a full restart.
	np := boundaryShiftPlan()
	fine, _ := runWithSwitch(t, &np, SwitchFineGrained, 30)
	restart, _ := runWithSwitch(t, &np, SwitchRestart, 30)
	base, _ := runWithSwitch(t, nil, SwitchAuto, 30)
	if fine >= restart {
		t.Fatalf("fine-grained (%v) not cheaper than restart (%v)", fine, restart)
	}
	if fine < base {
		t.Fatalf("switching made the run faster than no switch (%v < %v)?", fine, base)
	}
}

func TestAutoModePicksFineGrained(t *testing.T) {
	np := boundaryShiftPlan()
	_, e := runWithSwitch(t, &np, SwitchAuto, 20)
	if e.switchMode != SwitchFineGrained {
		t.Fatal("auto mode did not pick fine-grained for a boundary shift")
	}
}

func TestIncompatibleFineGrainedRejected(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.Uniform(8, 1e10, 1000)
	eng := sim.NewEngine()
	net := netsim.New(eng, cl)
	cfg := Config{
		Model: m, Cluster: cl,
		Plan:   partition.EvenSplit(m.NumLayers(), workerIDs(4)),
		Scheme: netsim.RingAllReduce,
	}
	e, err := NewAsync(eng, net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged := partition.Plan{
		Stages: []partition.Stage{
			{Start: 0, End: 4, Workers: []int{0, 1}},
			{Start: 4, End: 8, Workers: []int{2}},
		},
		InFlight: 2,
	}
	if err := e.ApplyPlan(merged, SwitchFineGrained, nil); err == nil {
		t.Fatal("fine-grained switch to incompatible plan accepted")
	}
	// Auto mode must fall back to restart and complete.
	e.Start(12)
	done := false
	if err := e.ApplyPlan(merged, SwitchAuto, func(res SwitchResult) { done = res.Committed }); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	if !done {
		t.Fatal("restart switch never completed")
	}
	if e.Completed() != 12 {
		t.Fatalf("completed %d/12", e.Completed())
	}
	if !e.Plan().Equal(merged) {
		t.Fatalf("plan = %s, want merged", e.Plan())
	}
}

func TestDoubleSwitchRejected(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.Uniform(8, 1e10, 1000)
	eng := sim.NewEngine()
	net := netsim.New(eng, cl)
	cfg := Config{
		Model: m, Cluster: cl,
		Plan:   partition.EvenSplit(m.NumLayers(), workerIDs(4)),
		Scheme: netsim.RingAllReduce,
	}
	e, _ := NewAsync(eng, net, cfg)
	e.Start(10)
	np := boundaryShiftPlan()
	if err := e.ApplyPlan(np, SwitchFineGrained, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyPlan(np, SwitchFineGrained, nil); err == nil {
		t.Fatal("second concurrent switch accepted")
	}
	eng.RunAll()
}

func TestInFlightOnlyChangeIsInstant(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.Uniform(8, 1e10, 1000)
	eng := sim.NewEngine()
	net := netsim.New(eng, cl)
	cfg := Config{
		Model: m, Cluster: cl,
		Plan:   partition.EvenSplit(m.NumLayers(), workerIDs(4)),
		Scheme: netsim.RingAllReduce,
	}
	e, _ := NewAsync(eng, net, cfg)
	e.Start(10)
	np := e.Plan()
	np.InFlight = 2
	if err := e.ApplyPlan(np, SwitchAuto, nil); err != nil {
		t.Fatal(err)
	}
	if e.SwitchCount != 0 {
		t.Fatal("InFlight-only change counted as a structural switch")
	}
	eng.RunAll()
	if e.Completed() != 10 {
		t.Fatalf("completed %d/10", e.Completed())
	}
}

func TestSwitchInvalidPlanRejected(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.Uniform(8, 1e10, 1000)
	eng := sim.NewEngine()
	net := netsim.New(eng, cl)
	cfg := Config{
		Model: m, Cluster: cl,
		Plan:   partition.EvenSplit(m.NumLayers(), workerIDs(4)),
		Scheme: netsim.RingAllReduce,
	}
	e, _ := NewAsync(eng, net, cfg)
	bad := partition.Plan{Stages: []partition.Stage{{Start: 0, End: 4, Workers: []int{0}}}, InFlight: 1}
	if err := e.ApplyPlan(bad, SwitchAuto, nil); err == nil {
		t.Fatal("invalid plan accepted")
	}
}

func TestApplyPlanBeforeStartDoesNotInject(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.Uniform(8, 1e10, 1000)
	eng := sim.NewEngine()
	net := netsim.New(eng, cl)
	e, err := NewAsync(eng, net, Config{
		Model: m, Cluster: cl,
		Plan:   partition.EvenSplit(m.NumLayers(), workerIDs(4)),
		Scheme: netsim.RingAllReduce,
	})
	if err != nil {
		t.Fatal(err)
	}
	np := boundaryShiftPlan()
	done := false
	if err := e.ApplyPlan(np, SwitchRestart, func(res SwitchResult) { done = res.Committed }); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	if !done {
		t.Fatal("pre-start switch never committed")
	}
	if e.Completed() != 0 {
		t.Fatalf("batches ran before Start: %d", e.Completed())
	}
	// Training then proceeds normally under the new plan.
	e.Start(8)
	eng.RunAll()
	if e.Completed() != 8 {
		t.Fatalf("completed %d/8 after Start", e.Completed())
	}
	if !e.Plan().Equal(np) {
		t.Fatalf("plan = %s, want switched", e.Plan())
	}
}

// faultEngine builds an engine whose network drops migration flows per
// the given verdict function (called with each matching injection's
// ordinal, starting at 0).
func faultEngine(t *testing.T, dropNth func(n int) bool) (*sim.Engine, *AsyncEngine) {
	t.Helper()
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.Uniform(8, 5e10, 100000)
	eng := sim.NewEngine()
	net := netsim.New(eng, cl)
	seen := 0
	net.SetFaultInjector(func(src, dst int, name netsim.Name) netsim.FlowFault {
		if !strings.Contains(name.String(), "migrate/") {
			return netsim.FaultNone
		}
		n := seen
		seen++
		if dropNth(n) {
			return netsim.FaultDrop
		}
		return netsim.FaultNone
	})
	e, err := NewAsync(eng, net, Config{
		Model: m, Cluster: cl,
		Plan:   partition.EvenSplit(m.NumLayers(), workerIDs(4)),
		Scheme: netsim.RingAllReduce,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, e
}

func TestMigrationVolumeMatchesFlows(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.Uniform(8, 1e9, 100)
	eng := sim.NewEngine()
	net := netsim.New(eng, cl)
	e, err := NewAsync(eng, net, Config{
		Model: m, Cluster: cl,
		Plan: partition.EvenSplit(m.NumLayers(), workerIDs(4)),
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(old, np partition.Plan) int64 {
		var s int64
		for _, f := range e.migrationFlows(old, np) {
			s += f.bytes
		}
		return s
	}
	old := partition.EvenSplit(8, workerIDs(4))
	np := boundaryShiftPlan()
	if got, want := MigrationVolume(m, old, np), sum(old, np); got != want {
		t.Fatalf("MigrationVolume %d != flow bytes %d", got, want)
	}
	// A layer with no old owner (partial old plan) is charged by neither.
	partial := partition.Plan{
		Stages: []partition.Stage{
			{Start: 0, End: 3, Workers: []int{0}},
			{Start: 3, End: 6, Workers: []int{1}},
		},
		InFlight: 2,
	}
	full := partition.EvenSplit(8, workerIDs(4))
	if got, want := MigrationVolume(m, partial, full), sum(partial, full); got != want {
		t.Fatalf("partial-coverage MigrationVolume %d != flow bytes %d", got, want)
	}
}

func TestStalledFineGrainedAbortsAndRollsBack(t *testing.T) {
	// Every migration attempt is blackholed: retries exhaust, the switch
	// aborts blaming the destination, the incumbent plan stays
	// authoritative and training completes.
	eng, e := faultEngine(t, func(int) bool { return true })
	old := e.Plan()
	var results []SwitchResult
	e.OnSwitchResult(func(res SwitchResult) { results = append(results, res) })
	e.Start(40)
	switched := false
	e.OnBatchDone(func(batch int, _ sim.Time) {
		if switched || batch < 10 {
			return
		}
		switched = true
		if err := e.ApplyPlan(boundaryShiftPlan(), SwitchFineGrained, nil); err != nil {
			t.Errorf("ApplyPlan: %v", err)
		}
	})
	eng.RunAll()
	if e.Completed() != 40 {
		t.Fatalf("wedged: completed %d/40", e.Completed())
	}
	if len(results) != 1 || results[0].Committed {
		t.Fatalf("switch results = %+v, want one abort", results)
	}
	// boundaryShiftPlan moves layer 2 from worker 1 to worker 0: the
	// stalled destination is worker 0.
	if len(results[0].StalledWorkers) != 1 || results[0].StalledWorkers[0] != 0 {
		t.Fatalf("stalled workers = %v, want [0]", results[0].StalledWorkers)
	}
	if e.AbortedSwitches != 1 {
		t.Fatalf("AbortedSwitches = %d, want 1", e.AbortedSwitches)
	}
	if e.MigrationRetries == 0 {
		t.Fatal("retries never attempted before the abort")
	}
	if !e.Plan().Equal(old) {
		t.Fatalf("plan = %s, want rollback to %s", e.Plan(), old)
	}
	if err := e.SwitchIdle(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationRetrySucceeds(t *testing.T) {
	// Only the first attempt is lost; the retry lands and the switch
	// commits.
	eng, e := faultEngine(t, func(n int) bool { return n == 0 })
	var results []SwitchResult
	e.OnSwitchResult(func(res SwitchResult) { results = append(results, res) })
	e.Start(40)
	switched := false
	e.OnBatchDone(func(batch int, _ sim.Time) {
		if switched || batch < 10 {
			return
		}
		switched = true
		if err := e.ApplyPlan(boundaryShiftPlan(), SwitchFineGrained, nil); err != nil {
			t.Errorf("ApplyPlan: %v", err)
		}
	})
	eng.RunAll()
	if e.Completed() != 40 {
		t.Fatalf("wedged: completed %d/40", e.Completed())
	}
	if len(results) != 1 || !results[0].Committed {
		t.Fatalf("switch results = %+v, want one commit", results)
	}
	if e.MigrationRetries != 1 {
		t.Fatalf("MigrationRetries = %d, want 1", e.MigrationRetries)
	}
	if !e.Plan().Equal(boundaryShiftPlan()) {
		t.Fatalf("plan = %s, want switched", e.Plan())
	}
	if err := e.SwitchIdle(); err != nil {
		t.Fatal(err)
	}
}

func TestFailureBetweenFineGrainedCommits(t *testing.T) {
	// A two-layer fine-grained switch: the first layer's transfer lands
	// (and its boundary commits), then the destination dies — every later
	// attempt is lost. The abort must roll the whole switch back to a
	// consistent single-owner plan and release the pipeline.
	eng, e := faultEngine(t, func(n int) bool { return n > 0 })
	np := partition.Plan{
		Stages: []partition.Stage{
			{Start: 0, End: 3, Workers: []int{0}},
			{Start: 3, End: 5, Workers: []int{1}},
			{Start: 5, End: 6, Workers: []int{2}},
			{Start: 6, End: 8, Workers: []int{3}},
		},
		InFlight: 4,
	}
	var results []SwitchResult
	e.OnSwitchResult(func(res SwitchResult) { results = append(results, res) })
	e.Start(40)
	switched := false
	e.OnBatchDone(func(batch int, _ sim.Time) {
		if switched || batch < 10 {
			return
		}
		switched = true
		if err := e.ApplyPlan(np, SwitchFineGrained, nil); err != nil {
			t.Errorf("ApplyPlan: %v", err)
		}
	})
	eng.RunAll()
	if e.Completed() != 40 {
		t.Fatalf("wedged: completed %d/40", e.Completed())
	}
	if len(results) != 1 || results[0].Committed {
		t.Fatalf("switch results = %+v, want one abort", results)
	}
	if err := e.Plan().Validate(8, 10); err != nil {
		t.Fatalf("post-abort plan invalid: %v", err)
	}
	if !e.Plan().Equal(e.CommittedPlan()) {
		t.Fatalf("running plan %s diverges from committed %s", e.Plan(), e.CommittedPlan())
	}
	if err := e.SwitchIdle(); err != nil {
		t.Fatal(err)
	}
}

func TestRestartDrainDestinationFailure(t *testing.T) {
	// A restart switch's parallel migration loses every transfer to one
	// destination: the abort blames exactly that worker and training
	// resumes on the incumbent plan.
	eng, e := faultEngine(t, func(int) bool { return true })
	old := e.Plan()
	var results []SwitchResult
	e.OnSwitchResult(func(res SwitchResult) { results = append(results, res) })
	e.Start(40)
	switched := false
	e.OnBatchDone(func(batch int, _ sim.Time) {
		if switched || batch < 10 {
			return
		}
		switched = true
		if err := e.ApplyPlan(boundaryShiftPlan(), SwitchRestart, nil); err != nil {
			t.Errorf("ApplyPlan: %v", err)
		}
	})
	eng.RunAll()
	if e.Completed() != 40 {
		t.Fatalf("wedged: completed %d/40", e.Completed())
	}
	if len(results) != 1 || results[0].Committed {
		t.Fatalf("switch results = %+v, want one abort", results)
	}
	if len(results[0].StalledWorkers) != 1 || results[0].StalledWorkers[0] != 0 {
		t.Fatalf("stalled workers = %v, want [0]", results[0].StalledWorkers)
	}
	if !e.Plan().Equal(old) {
		t.Fatalf("plan = %s, want rollback to %s", e.Plan(), old)
	}
	if err := e.SwitchIdle(); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchEvictDiscardsInFlight(t *testing.T) {
	// SwitchEvict must not drain: it discards in-flight batches, rebuilds
	// on the new plan immediately, and the discarded batches are re-run
	// (total completions still add up).
	_, e := runWithSwitch(t, planPtr(boundaryShiftPlan()), SwitchEvict, 30)
	if !e.Plan().Equal(boundaryShiftPlan()) {
		t.Fatalf("plan = %s, want evict-switched", e.Plan())
	}
	if e.SwitchCount != 1 {
		t.Fatalf("SwitchCount = %d, want 1", e.SwitchCount)
	}
	if err := e.SwitchIdle(); err != nil {
		t.Fatal(err)
	}
}

func planPtr(p partition.Plan) *partition.Plan { return &p }
