package pipeline

import (
	"fmt"
	"math"
	"testing"

	"autopipe/internal/cluster"
	"autopipe/internal/model"
	"autopipe/internal/netsim"
	"autopipe/internal/partition"
	"autopipe/internal/sim"
)

func workerIDs(n int) []int {
	ws := make([]int, n)
	for i := range ws {
		ws[i] = i
	}
	return ws
}

func basicConfig(nicGbps float64, nWorkers int) Config {
	cl := cluster.Testbed(cluster.Gbps(nicGbps))
	m := model.Uniform(8, 5e10, 100000)
	return Config{
		Model:   m,
		Cluster: cl,
		Plan:    partition.EvenSplit(m.NumLayers(), workerIDs(nWorkers)),
		Scheme:  netsim.RingAllReduce,
	}
}

func TestAsyncCompletesAllBatches(t *testing.T) {
	res, err := MeasureAsync(basicConfig(25, 4), 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 20 {
		t.Fatalf("completed %d, want 20", res.Batches)
	}
	if res.Throughput <= 0 {
		t.Fatal("non-positive throughput")
	}
	if res.StartupTime <= 0 || res.StartupTime > res.WallTime {
		t.Fatalf("startup %v out of range (wall %v)", res.StartupTime, res.WallTime)
	}
}

func TestPipelineBeatsModelParallel(t *testing.T) {
	// Figure 1's claim: pipeline parallelism (in-flight = #stages)
	// outperforms naive model parallelism (in-flight = 1) on the same
	// partition.
	cfg := basicConfig(100, 4)
	pp, err := MeasureAsync(cfg, 30)
	if err != nil {
		t.Fatal(err)
	}
	mp := cfg
	mp.Plan = partition.ModelParallel(cfg.Model.NumLayers(), workerIDs(4))
	mpRes, err := MeasureAsync(mp, 30)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Throughput <= mpRes.Throughput*1.5 {
		t.Fatalf("pipeline %v not well above model-parallel %v", pp.Throughput, mpRes.Throughput)
	}
}

func TestSingleWorkerRuns(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(10))
	m := model.Uniform(4, 1e10, 1000)
	cfg := Config{
		Model: m, Cluster: cl,
		Plan:   partition.SingleStage(m.NumLayers(), []int{0}),
		Scheme: netsim.ParameterServer,
	}
	res, err := MeasureAsync(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 5 {
		t.Fatalf("batches = %d", res.Batches)
	}
}

func TestDataParallelSyncCostsGrowWithLowBandwidth(t *testing.T) {
	// Vanilla data parallelism over 4 workers: throughput at 10 Gbps
	// must be below throughput at 100 Gbps (param sync dominates).
	mk := func(gbps float64) float64 {
		cl := cluster.Testbed(cluster.Gbps(gbps))
		m := model.VGG16()
		cfg := Config{
			Model: m, Cluster: cl,
			Plan:   partition.SingleStage(m.NumLayers(), workerIDs(4)),
			Scheme: netsim.RingAllReduce,
		}
		res, err := MeasureAsync(cfg, 8)
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	slow, fast := mk(10), mk(100)
	if slow >= fast {
		t.Fatalf("10G throughput %v not below 100G %v", slow, fast)
	}
}

func TestWeightStashingInvariant(t *testing.T) {
	// The engine panics if a BP runs without its FP's stashed version;
	// a full run therefore proves the invariant. Also the stash peak is
	// bounded by the in-flight count.
	cfg := basicConfig(25, 4)
	res, err := MeasureAsync(cfg, 40)
	if err != nil {
		t.Fatal(err)
	}
	if res.StashPeak < 1 {
		t.Fatal("no stashing recorded")
	}
	if res.StashPeak > cfg.Plan.InFlight {
		t.Fatalf("stash peak %d exceeds in-flight %d", res.StashPeak, cfg.Plan.InFlight)
	}
}

func TestUtilizationBounds(t *testing.T) {
	res, err := MeasureAsync(basicConfig(25, 4), 20)
	if err != nil {
		t.Fatal(err)
	}
	for w, u := range res.Utilization {
		if u < 0 || u > 1+1e-9 {
			t.Fatalf("worker %d utilization %v out of [0,1]", w, u)
		}
	}
}

func TestHigherInFlightFillsPipeline(t *testing.T) {
	cfg := basicConfig(100, 4)
	cfg.Plan.InFlight = 1
	one, err := MeasureAsync(cfg, 24)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := basicConfig(100, 4)
	cfg2.Plan.InFlight = 4
	four, err := MeasureAsync(cfg2, 24)
	if err != nil {
		t.Fatal(err)
	}
	if four.Throughput <= one.Throughput {
		t.Fatalf("InFlight=4 throughput %v not above InFlight=1 %v", four.Throughput, one.Throughput)
	}
}

func TestFrameworkEfficiencyOrdering(t *testing.T) {
	run := func(f Framework) float64 {
		cfg := basicConfig(100, 4)
		cfg.Framework = f
		res, err := MeasureAsync(cfg, 16)
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	tf, px := run(TensorFlow), run(PyTorch)
	if tf >= px {
		t.Fatalf("TensorFlow %v should be below PyTorch %v (efficiency factors)", tf, px)
	}
}

func TestReplicatedStageSyncs(t *testing.T) {
	// A 2-replica stage must pay gradient syncs: throughput under PS on
	// a slow network is below the same plan on a fast network.
	mk := func(gbps float64) float64 {
		cl := cluster.Testbed(cluster.Gbps(gbps))
		m := model.VGG16()
		plan := partition.Plan{
			Stages: []partition.Stage{
				{Start: 0, End: 15, Workers: []int{0, 2}},
				{Start: 15, End: m.NumLayers(), Workers: []int{4}},
			},
			InFlight: 2,
		}
		cfg := Config{Model: m, Cluster: cl, Plan: plan, Scheme: netsim.ParameterServer}
		res, err := MeasureAsync(cfg, 10)
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	if slow, fast := mk(10), mk(100); slow >= fast {
		t.Fatalf("replicated stage ignores sync cost: slow %v fast %v", slow, fast)
	}
}

func TestSyncEveryCoalescingHelps(t *testing.T) {
	// PipeDream-2BW style: syncing every 4 batches must beat every-batch
	// syncing on a communication-bound setup.
	mk := func(every int) float64 {
		// Full data parallelism over a slow network: the per-batch
		// parameter sync dominates, so coalescing must pay off.
		cl := cluster.Testbed(cluster.Gbps(1))
		m := model.VGG16()
		plan := partition.SingleStage(m.NumLayers(), []int{0, 2})
		plan.InFlight = 2
		cfg := Config{Model: m, Cluster: cl, Plan: plan, Scheme: netsim.ParameterServer, SyncEvery: every}
		res, err := MeasureAsync(cfg, 12)
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	if every1, every4 := mk(1), mk(4); every4 <= every1 {
		t.Fatalf("gradient coalescing did not help: every1=%v every4=%v", every1, every4)
	}
}

func TestContentionSlowsTraining(t *testing.T) {
	cfg := basicConfig(25, 4)
	base, err := MeasureAsync(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := basicConfig(25, 4)
	cfg2.Cluster.AddCompetingJob()
	contended, err := MeasureAsync(cfg2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if contended.Throughput >= base.Throughput {
		t.Fatalf("contention did not slow training: %v vs %v", contended.Throughput, base.Throughput)
	}
}

func TestMeasureAsyncRejectsBadInput(t *testing.T) {
	if _, err := MeasureAsync(basicConfig(10, 4), 0); err == nil {
		t.Fatal("accepted zero batches")
	}
	cfg := basicConfig(10, 4)
	cfg.Plan.Stages[0].Workers = nil
	if _, err := MeasureAsync(cfg, 4); err == nil {
		t.Fatal("accepted invalid plan")
	}
	cfg2 := basicConfig(10, 4)
	cfg2.Model = nil
	if _, err := MeasureAsync(cfg2, 4); err == nil {
		t.Fatal("accepted nil model")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := MeasureAsync(basicConfig(25, 4), 15)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureAsync(basicConfig(25, 4), 15)
	if err != nil {
		t.Fatal(err)
	}
	if a.WallTime != b.WallTime || a.Throughput != b.Throughput {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestThroughputOfEdgeCases(t *testing.T) {
	if throughputOf(nil, 10) != 0 {
		t.Fatal("empty completions")
	}
	if tp := throughputOf([]sim.Time{2}, 10); math.Abs(tp-5) > 1e-12 {
		t.Fatalf("single completion tp = %v, want 5", tp)
	}
	if tp := throughputOf([]sim.Time{1, 2, 3, 4, 5}, 10); math.Abs(tp-10) > 1e-9 {
		t.Fatalf("uniform completions tp = %v, want 10", tp)
	}
}

func TestBandwidthChangeMidRunSlowsCompletion(t *testing.T) {
	// Drive the engine manually on a shared sim so we can mutate the
	// cluster mid-run (Figure 3's scenario).
	mkWall := func(shrink bool) float64 {
		cl := cluster.Testbed(cluster.Gbps(25))
		m := model.VGG16()
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
		e.Start(16)
		if shrink {
			eng.Schedule(0.5, "halve-bw", func() {
				cl.SetNICBandwidth(cluster.Gbps(5))
				net.OnCapacityChange()
			})
		}
		eng.RunAll()
		if e.Completed() != 16 {
			t.Fatalf("deadlock: %d/16", e.Completed())
		}
		return float64(eng.Now())
	}
	if base, degraded := mkWall(false), mkWall(true); degraded <= base {
		t.Fatalf("bandwidth drop did not slow run: %v vs %v", degraded, base)
	}
}

func TestCommPriorityHelpsWhenSyncContends(t *testing.T) {
	// With a replicated stage whose gradient syncs share links with
	// boundary transfers, prioritising the boundary flows must not hurt
	// — and on a tight network it should help.
	mk := func(priority bool) float64 {
		cl := cluster.Testbed(cluster.Gbps(5))
		m := model.VGG16()
		plan := partition.Plan{
			Stages: []partition.Stage{
				{Start: 0, End: 18, Workers: []int{0}},
				{Start: 18, End: m.NumLayers(), Workers: []int{2, 4}},
			},
			InFlight: 3,
		}
		cfg := Config{
			Model: m, Cluster: cl, Plan: plan,
			Scheme: netsim.ParameterServer, CommPriority: priority,
		}
		res, err := MeasureAsync(cfg, 12)
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	plain, prio := mk(false), mk(true)
	if prio < plain*0.99 {
		t.Fatalf("comm priority hurt throughput: %v vs %v", prio, plain)
	}
}

// TestTaskEventZeroAllocs: starting a task re-arms the replica's one
// compute event; no event, closure or label is allocated per task.
func TestTaskEventZeroAllocs(t *testing.T) {
	cfg := basicConfig(25, 2)
	eng := sim.NewEngine()
	e, err := NewAsync(eng, netsim.New(eng, cfg.Cluster), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := e.stages[0].replicas[0]
	arm := func() {
		r.queue = append(r.queue, task{kind: taskFP})
		e.tryStart(r)
		if r.pending != r.compute || eng.Pending() != 1 {
			t.Fatal("tryStart did not arm the replica's compute event")
		}
		// Disarm as an evicting switch would, without running the task.
		eng.Cancel(r.pending)
		r.pending, r.busy = nil, false
	}
	arm()
	if n := testing.AllocsPerRun(200, arm); n != 0 {
		t.Fatalf("re-arming a task allocates %v times, want 0", n)
	}
}

// TestFlowNamesKeepTheirText: the flows real runs start carry the names
// the engines have always formatted with fmt.Sprintf — the text chaos
// triggers and stalls match on — across boundary transfers, gradient
// syncs under both schemes, synchronous schedules and both kinds of
// migration.
func TestFlowNamesKeepTheirText(t *testing.T) {
	names := map[string]bool{}
	record := func(net *netsim.Network) {
		net.SetFaultInjector(func(_, _ int, n netsim.Name) netsim.FlowFault {
			names[n.String()] = true
			return netsim.FaultNone
		})
	}
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.Uniform(8, 5e10, 100000)
	replicated := partition.Plan{Stages: []partition.Stage{
		{Start: 0, End: 4, Workers: []int{0, 2}},
		{Start: 4, End: 8, Workers: []int{4}},
	}, InFlight: 4}
	for _, scheme := range []netsim.SyncScheme{netsim.RingAllReduce, netsim.ParameterServer} {
		eng := sim.NewEngine()
		net := netsim.New(eng, cl)
		record(net)
		e, err := NewAsync(eng, net, Config{Model: m, Cluster: cl, Plan: replicated, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		e.Start(12)
		eng.RunAll()

		eng = sim.NewEngine()
		net = netsim.New(eng, cl)
		record(net)
		s, err := NewSync(eng, net, SyncConfig{
			Config:   Config{Model: m, Cluster: cl, Plan: replicated, Scheme: scheme},
			Schedule: DAPPLE, MicroBatches: 12,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Start(1)
		eng.RunAll()
	}
	for _, mode := range []SwitchMode{SwitchFineGrained, SwitchRestart} {
		eng := sim.NewEngine()
		net := netsim.New(eng, cl)
		record(net)
		e, err := NewAsync(eng, net, Config{Model: m, Cluster: cl,
			Plan: partition.EvenSplit(m.NumLayers(), workerIDs(4)), Scheme: netsim.RingAllReduce})
		if err != nil {
			t.Fatal(err)
		}
		e.OnBatchDone(func(batch int, _ sim.Time) {
			if batch == 4 {
				if err := e.ApplyPlan(boundaryShiftPlan(), mode, nil); err != nil {
					t.Error(err)
				}
			}
		})
		e.Start(12)
		eng.RunAll()
	}
	want := []string{
		fmt.Sprintf("act(b%d)%d→%d", 0, 0, 1),
		fmt.Sprintf("act(b%d)%d→%d", 11, 0, 1),
		fmt.Sprintf("grad(b%d)%d→%d", 10, 1, 0),
		fmt.Sprintf("gradsync(stage%d)", 0) + "/push",
		fmt.Sprintf("gradsync(stage%d)", 0) + "/pull",
		fmt.Sprintf("gradsync(stage%d)", 0) + "/ring-step" + "0",
		fmt.Sprintf("gradsync(stage%d)", 0) + "/ring-step" + "1",
		fmt.Sprintf("sact(p%d,m%d)", 0, 11),
		fmt.Sprintf("sgrad(p%d,m%d)", 0, 10),
		fmt.Sprintf("flushsync(stage%d)", 0) + "/push",
		fmt.Sprintf("flushsync(stage%d)", 0) + "/ring-step" + "1",
		"finemigrate/" + fmt.Sprintf("L%d:%d→%d", 2, 1, 0),
		"migrate/" + fmt.Sprintf("L%d:%d→%d", 2, 1, 0),
	}
	for _, n := range want {
		if !names[n] {
			t.Errorf("no flow named %q", n)
		}
	}
}
