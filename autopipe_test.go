package autopipe

import (
	"context"
	"testing"
)

func TestFacadeMeasureQuickstart(t *testing.T) {
	m := AlexNet()
	cl := Testbed(Gbps(25))
	plan := PlanPipeDream(m, cl, Workers(10))
	res, err := Measure(RunConfig{
		Model: m, Cluster: cl, Plan: plan,
		Scheme: RingAllReduce, Batches: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 || res.Batches != 15 {
		t.Fatalf("bad result %+v", res)
	}
}

func TestFacadeMeasureDefaultsPlan(t *testing.T) {
	res, err := Measure(RunConfig{
		Model: AlexNet(), Cluster: Testbed(Gbps(25)), Batches: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 8 {
		t.Fatal("default plan run failed")
	}
}

func TestFacadeMeasureValidation(t *testing.T) {
	if _, err := Measure(RunConfig{Cluster: Testbed(Gbps(10)), Batches: 1}); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := Measure(RunConfig{Model: AlexNet(), Cluster: Testbed(Gbps(10))}); err == nil {
		t.Fatal("zero batches accepted")
	}
}

func TestFacadeRunJobWithDynamics(t *testing.T) {
	m := VGG16()
	cl := Testbed(Gbps(100))
	res, err := RunJob(context.Background(), JobConfig{
		Model: m, Cluster: cl, Scheme: RingAllReduce,
		Workers:  Workers(4),
		Dynamics: BandwidthSteps([]float64{2}, []float64{5}),
	}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if res.Controller.Iterations != 40 {
		t.Fatalf("controller iterations = %d", res.Controller.Iterations)
	}
	if len(res.SpeedPerIteration) == 0 {
		t.Fatal("no per-iteration speeds")
	}
	if err := res.FinalPlan.Validate(m.NumLayers(), cl.NumGPUs()); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeJobBeatsFrozenUnderDynamics(t *testing.T) {
	run := func(disable bool) float64 {
		cl := Testbed(Gbps(100))
		res, err := RunJob(context.Background(), JobConfig{
			Model: VGG16(), Cluster: cl, Scheme: RingAllReduce,
			Workers: Workers(4), DisableReconfig: disable,
			Dynamics:   BandwidthSteps([]float64{2}, []float64{5}),
			CheckEvery: 3,
		}, 40)
		if err != nil {
			t.Fatal(err)
		}
		return res.WallTime
	}
	if adaptive, frozen := run(false), run(true); adaptive >= frozen {
		t.Fatalf("managed job (%v) not faster than frozen (%v)", adaptive, frozen)
	}
}

func TestFacadePlanners(t *testing.T) {
	m := ResNet50()
	cl := Testbed(Gbps(25))
	for name, plan := range map[string]Plan{
		"pipedream": PlanPipeDream(m, cl, Workers(10)),
		"optimal":   PlanOptimal(m, cl, Workers(10)),
		"even":      PlanEvenSplit(m, Workers(10)),
		"dp":        PlanDataParallel(m, Workers(10)),
	} {
		if err := plan.Validate(m.NumLayers(), cl.NumGPUs()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestFacadeOptimizePlan(t *testing.T) {
	m := VGG16()
	cl := Testbed(Gbps(10))
	cl.AddCompetingJob()
	start := PlanEvenSplit(m, Workers(4))
	opt, err := OptimizePlan(context.Background(), m, cl, start, ParameterServer)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Validate(m.NumLayers(), cl.NumGPUs()); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeModelZoo(t *testing.T) {
	for _, m := range []*Model{ResNet50(), VGG16(), AlexNet(), BERT48(), UniformModel(4, 1e9, 10)} {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ModelByName("nope"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestFacadeChurnTrace(t *testing.T) {
	tr := ChurnTrace(1, 100)
	if len(tr) == 0 {
		t.Fatal("empty churn trace")
	}
	tr2 := ChurnTrace(1, 100)
	if len(tr) != len(tr2) {
		t.Fatal("churn trace not deterministic")
	}
}

func TestFacadeCustomCluster(t *testing.T) {
	cl := NewCluster(3, 4, V100, Gbps(40))
	if cl.NumGPUs() != 12 {
		t.Fatalf("GPUs = %d", cl.NumGPUs())
	}
	if cl.GPU(0).Type.Name != "V100" {
		t.Fatal("GPU type not applied")
	}
}

func TestFacadeDiffWorkers(t *testing.T) {
	m := UniformModel(8, 1e9, 10)
	a := PlanEvenSplit(m, Workers(4))
	b := a.Clone()
	b.Stages[0].End = 3
	b.Stages[1].Start = 3
	if d := DiffWorkers(a, b); len(d) != 2 {
		t.Fatalf("DiffWorkers = %v", d)
	}
}

func TestFacadeMeasureSyncSchedule(t *testing.T) {
	m := UniformModel(8, 5e10, 100000)
	for _, sched := range []SyncSchedule{GPipe, DAPPLE, Chimera} {
		res, err := MeasureSyncSchedule(RunConfig{
			Model: m, Cluster: Testbed(Gbps(25)),
			Plan:   PlanEvenSplit(m, Workers(4)),
			Scheme: RingAllReduce, Batches: 4,
		}, sched, 4)
		if err != nil {
			t.Fatalf("%v: %v", sched, err)
		}
		if res.Batches != 4 || res.Throughput <= 0 {
			t.Fatalf("%v: bad result %+v", sched, res)
		}
	}
	if _, err := MeasureSyncSchedule(RunConfig{Cluster: Testbed(Gbps(10)), Batches: 1}, GPipe, 4); err == nil {
		t.Fatal("nil model accepted")
	}
}

func TestFacadeSelectWorkers(t *testing.T) {
	m := VGG16()
	cl := Testbed(Gbps(1))
	plan, k := SelectWorkers(m, cl, Workers(10))
	if err := plan.Validate(m.NumLayers(), cl.NumGPUs()); err != nil {
		t.Fatal(err)
	}
	if k < 1 || k > 10 {
		t.Fatalf("selected %d workers", k)
	}
}

func TestFacadeHybridPredictorJob(t *testing.T) {
	net := func() *MetaNetwork {
		// Untrained network blended at low weight: behaviour must stay
		// sane (the analytic component dominates).
		return newTestMetaNetwork()
	}()
	res, err := RunJob(context.Background(), JobConfig{
		Model: AlexNet(), Cluster: Testbed(Gbps(25)),
		Workers: Workers(4), Scheme: RingAllReduce,
		Predictor: NewHybridPredictor(net, 0.2, RingAllReduce),
		SyncEvery: 2,
	}, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 15 {
		t.Fatalf("batches = %d", res.Batches)
	}
}

// TestPaperSpecsPinned pins four paper-catalogue jobs — ResNet50, VGG16,
// BERT48 and AlexNet on the 25G testbed under Ring and PS with churn —
// to the throughput, final plan and decision count the map-based
// fair-share solver produced, so the network simulator's rewrites stay
// bit-identical end to end.
func TestPaperSpecsPinned(t *testing.T) {
	for _, tc := range []struct {
		model      string
		scheme     SyncScheme
		churn      int64
		batches    int
		throughput float64
		plan       string
		decisions  int
	}{
		{"ResNet50", RingAllReduce, 1, 50, 1335.1570170047357,
			"[0:6)@[0] [6:21)@[1 2 3] [21:30)@[4 5] [30:35)@[6] [35:40)@[7] [40:45)@[8] [45:52)@[9] |13", 10},
		{"VGG16", ParameterServer, 2, 100, 276.86182058418683,
			"[0:6)@[0 1 2] [6:10)@[3 4 5] [10:13)@[6 7 8] [13:21)@[9] |13", 20},
		{"BERT48", RingAllReduce, 3, 100, 48.11338177872823,
			"[0:11)@[0] [11:21)@[1] [21:31)@[2] [31:41)@[3] [41:51)@[4] [51:61)@[5] [61:71)@[6] [71:81)@[7] [81:91)@[8] [91:98)@[9] |10", 20},
		{"AlexNet", ParameterServer, 4, 50, 5393.994875075728,
			"[0:4)@[0 1 2 3] [4:7)@[4 5 6 7 8] [7:11)@[9] |13", 10},
	} {
		m, err := ModelByName(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		cl := Testbed(Gbps(25))
		res, err := RunJob(context.Background(), JobConfig{
			Model: m, Cluster: cl, Workers: Workers(cl.NumGPUs()),
			Scheme: tc.scheme, Dynamics: ChurnTrace(tc.churn, 60),
		}, tc.batches)
		if err != nil {
			t.Fatal(err)
		}
		if res.Throughput != tc.throughput || res.FinalPlan.String() != tc.plan || res.Controller.Decisions != tc.decisions {
			t.Errorf("%s/%v/churn %d: throughput %v, plan %q, %d decisions; want %v, %q, %d",
				tc.model, tc.scheme, tc.churn, res.Throughput, res.FinalPlan.String(), res.Controller.Decisions,
				tc.throughput, tc.plan, tc.decisions)
		}
	}
}
