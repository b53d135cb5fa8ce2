package autopipe

// Benchmarks regenerating every table and figure of the paper's
// evaluation, one benchmark per figure, plus micro-benchmarks of the
// planner, predictor, arbiter and simulation substrates. Run with:
//
//	go test -bench=. -benchmem
//
// The reported ns/op of a BenchmarkFigureN is the cost of regenerating
// that figure's full data from the simulator.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	ap "autopipe/internal/autopipe"

	"autopipe/internal/cluster"
	"autopipe/internal/experiments"
	"autopipe/internal/meta"
	"autopipe/internal/model"
	"autopipe/internal/netsim"
	"autopipe/internal/partition"
	"autopipe/internal/pipeline"
	"autopipe/internal/profile"
	"autopipe/internal/rl"
	"autopipe/internal/sim"
)

// ---- Figures ----

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure2()
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure3()
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure4()
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure5()
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure6()
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure8(20)
	}
}

func BenchmarkFigure8PanelResNet50PSTF(b *testing.B) {
	cell := experiments.Figure8Cell{
		Model: model.ResNet50(), Scheme: netsim.ParameterServer, Framework: pipeline.TensorFlow,
	}
	for i := 0; i < b.N; i++ {
		experiments.Figure8Panel(cell, 20)
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure9()
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure10()
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure11(30, 11)
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure12()
	}
}

func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure13()
	}
}

// ---- Table 1: the profiler itself ----

func BenchmarkTable1Profiler(b *testing.B) {
	cl := cluster.Testbed(cluster.Gbps(25))
	pr := profile.NewProfiler(model.ResNet50(), cl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.Observe()
	}
}

// ---- Component micro-benchmarks (the paper's Fig. 12 in isolation) ----

func BenchmarkPipeDreamDP(b *testing.B) {
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.ResNet50()
	for i := 0; i < b.N; i++ {
		cm := partition.NewPipeDreamCost(m, cl, 0, cluster.Gbps(25))
		partition.PipeDream(cm, Workers(10))
	}
}

func BenchmarkAnalyticPredictor(b *testing.B) {
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.ResNet50()
	prof := profile.NewProfiler(m, cl).Observe()
	plan := PlanPipeDream(m, cl, Workers(10))
	pred := meta.AnalyticPredictor{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred.PredictSpeed(prof, plan, m.MiniBatch, nil)
	}
}

func BenchmarkMetaNetworkPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := meta.NewNetwork(rng)
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.ResNet50()
	prof := profile.NewProfiler(m, cl).Observe()
	plan := PlanPipeDream(m, cl, Workers(10))
	h := &meta.History{}
	h.Push(meta.EncodeDynamicStep(prof, 0.5))
	f := meta.BuildFeatures(prof, plan, m.MiniBatch, h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Predict(f)
	}
}

func BenchmarkRLArbiterDecide(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	arb := rl.NewArbiter(rng)
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.ResNet50()
	prof := profile.NewProfiler(m, cl).Observe()
	plan := PlanPipeDream(m, cl, Workers(10))
	cand := partition.Neighbors(plan)
	if len(cand) == 0 {
		cand = partition.InFlightVariants(plan, 0)
	}
	x := rl.Encode(rl.State{
		Profile: prof, MiniBatch: m.MiniBatch,
		Current: plan, Candidate: cand[0],
		PredCurrent: 100, PredCandidate: 110, SwitchCost: 1,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arb.Decide(x)
	}
}

func BenchmarkNeighborEnumeration(b *testing.B) {
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.BERT48() // 98 layers: the O(L²) worst case
	plan := PlanEvenSplit(m, Workers(10))
	_ = cl
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition.NeighborsWithMerge(plan)
	}
}

// ---- Substrate micro-benchmarks ----

func BenchmarkSimEngineEvents(b *testing.B) {
	eng := sim.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(1, "bench", func() {})
		eng.Step()
	}
}

func BenchmarkNetsimFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		cl := cluster.Testbed(cluster.Gbps(25))
		net := netsim.New(eng, cl)
		for f := 0; f < 8; f++ {
			net.StartFlow(f%10, (f+3)%10, 1e8, netsim.Label("bench"), nil)
		}
		eng.RunAll()
	}
}

func BenchmarkPipelineResNet50Iteration(b *testing.B) {
	m := model.ResNet50()
	cl := cluster.Testbed(cluster.Gbps(25))
	plan := PlanPipeDream(m, cl, Workers(10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pipeline.MeasureAsync(pipeline.Config{
			Model: m, Cluster: cl, Plan: plan, Scheme: netsim.RingAllReduce,
		}, 10)
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

func BenchmarkFineGrainedSwitch(b *testing.B) {
	m := model.VGG16()
	for i := 0; i < b.N; i++ {
		cl := cluster.Testbed(cluster.Gbps(25))
		eng := sim.NewEngine()
		net := netsim.New(eng, cl)
		plan := partition.EvenSplit(m.NumLayers(), Workers(4))
		e, err := pipeline.NewAsync(eng, net, pipeline.Config{
			Model: m, Cluster: cl, Plan: plan, Scheme: netsim.RingAllReduce,
		})
		if err != nil {
			b.Fatal(err)
		}
		e.Start(10)
		np := plan.Clone()
		np.Stages[0].End++
		np.Stages[1].Start++
		if err := e.ApplyPlan(np, pipeline.SwitchFineGrained, nil); err != nil {
			b.Fatal(err)
		}
		eng.RunAll()
	}
}

// ---- Extension studies ----

func BenchmarkAblationSwitchMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationSwitchMode()
	}
}

func BenchmarkAblationPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationPolicy()
	}
}

func BenchmarkAblationCheckEvery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationCheckEvery()
	}
}

func BenchmarkMultiJob(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunMultiJob(model.ResNet50(), model.VGG16(), 10, true, true, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemoryAccounting(b *testing.B) {
	m := model.VGG16()
	cl := cluster.Testbed(cluster.Gbps(25))
	plan := partition.EvenSplit(m.NumLayers(), Workers(4))
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		net := netsim.New(eng, cl)
		e, err := pipeline.NewAsync(eng, net, pipeline.Config{
			Model: m, Cluster: cl, Plan: plan, Scheme: netsim.RingAllReduce, SyncEvery: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		e.Start(10)
		eng.RunAll()
		_ = e.MaxPeakMemoryBytes()
	}
}

func BenchmarkHeteroStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.HeteroTable(12)
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.SchedulerChurnTable(20, []int64{1})
	}
}

func BenchmarkRackStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RackTable(10)
	}
}

func BenchmarkHierarchicalDP(b *testing.B) {
	cl := cluster.NewCluster(cluster.Config{
		Servers: 4, GPUsPerServer: 2, GPUType: cluster.P100,
		NICBwBps: cluster.Gbps(40), Racks: 2, RackUplinkBps: cluster.Gbps(10),
	})
	m := model.ResNet50()
	cm := partition.NewPipeDreamCost(m, cl, 0, cluster.Gbps(40))
	racks := [][]int{{0, 1, 4, 5}, {2, 3, 6, 7}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition.PipeDreamHierarchical(cm, racks, cluster.Gbps(10))
	}
}

// ---- Concurrent evaluation core ----

// BenchmarkOptimizePlan measures the analytic hill-climb at several
// worker counts. The chosen plan is bit-identical across sub-benchmarks
// (asserted here); only wall-clock may differ. An analytic round costs
// tens of microseconds, below the fan-out budget, so every procs setting
// scores inline and they tie: none may be slower than procs=1. The
// hybrid benchmark below is the one whose rounds fan out.
func BenchmarkOptimizePlan(b *testing.B) {
	cl := cluster.Testbed(cluster.Gbps(25))
	cl.AddCompetingJob()
	m := model.BERT48()
	pr := profile.NewProfiler(m, cl)
	_ = pr.SetSmoothing(1)
	prof := pr.Observe()
	workers := make([]int, 10)
	for i := range workers {
		workers[i] = i
	}
	start := partition.EvenSplit(m.NumLayers(), workers)
	var serialPlan partition.Plan
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			var last partition.Plan
			for i := 0; i < b.N; i++ {
				p, err := ap.OptimizePlan(context.Background(), prof, start, m.MiniBatch,
					meta.AnalyticPredictor{}, ap.OptimizeOptions{MaxRounds: 8, UseMerge: true, Procs: procs})
				if err != nil {
					b.Fatal(err)
				}
				last = p
			}
			if procs == 1 {
				serialPlan = last
			} else if !last.Equal(serialPlan) {
				b.Fatalf("procs=%d chose %s, serial chose %s", procs, last, serialPlan)
			}
		})
	}
}

// BenchmarkPredictSpeed scores one candidate partition through each
// predictor on the allocation-free inference path. Run with -cpu 1,4,8:
// RunParallel fans the calls across GOMAXPROCS goroutines, so the net
// and hybrid sub-benchmarks double as proof that meta-network scoring
// now parallelises (it used to degrade to serial — the LSTM kept
// per-call state). All three must report 0 allocs/op in steady state.
func BenchmarkPredictSpeed(b *testing.B) {
	cl := cluster.Testbed(cluster.Gbps(25))
	cl.AddCompetingJob()
	m := model.ResNet50()
	prof := profile.NewProfiler(m, cl).Observe()
	plan := PlanPipeDream(m, cl, Workers(10))
	h := &meta.History{}
	h.Push(meta.EncodeDynamicStep(prof, 0.5))
	net := meta.NewNetwork(rand.New(rand.NewSource(1)))
	preds := []struct {
		name string
		pred meta.Predictor
	}{
		{"analytic", meta.AnalyticPredictor{}},
		{"net", meta.NetPredictor{Net: net}},
		{"hybrid", &meta.HybridPredictor{Net: net, NetWeight: 0.3}},
	}
	for _, c := range preds {
		b.Run(c.name, func(b *testing.B) {
			c.pred.PredictSpeed(prof, plan, m.MiniBatch, h) // warm the pools
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					c.pred.PredictSpeed(prof, plan, m.MiniBatch, h)
				}
			})
		})
	}
}

// BenchmarkOptimizePlanHybrid is BenchmarkOptimizePlan on the learned
// (hybrid) predictor — the paper's headline path. Its rounds cost about
// 0.6 ms, several fan-out budgets, so procs > 1 splits them across up
// to GOMAXPROCS goroutines and should beat procs=1 on a multi-core
// host, while the chosen plan stays bit-identical across proc counts
// (asserted).
func BenchmarkOptimizePlanHybrid(b *testing.B) {
	cl := cluster.Testbed(cluster.Gbps(25))
	cl.AddCompetingJob()
	m := model.BERT48()
	pr := profile.NewProfiler(m, cl)
	_ = pr.SetSmoothing(1)
	prof := pr.Observe()
	net := meta.NewNetwork(rand.New(rand.NewSource(2)))
	pred := &meta.HybridPredictor{Net: net, NetWeight: 0.5, Scheme: netsim.RingAllReduce}
	h := &meta.History{}
	h.Push(meta.EncodeDynamicStep(prof, 0.5))
	workers := make([]int, 10)
	for i := range workers {
		workers[i] = i
	}
	start := partition.EvenSplit(m.NumLayers(), workers)
	var serialPlan partition.Plan
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			var last partition.Plan
			for i := 0; i < b.N; i++ {
				p, err := ap.OptimizePlan(context.Background(), prof, start, m.MiniBatch,
					pred, ap.OptimizeOptions{MaxRounds: 8, UseMerge: true, Procs: procs, History: h})
				if err != nil {
					b.Fatal(err)
				}
				last = p
			}
			if procs == 1 {
				serialPlan = last
			} else if !last.Equal(serialPlan) {
				b.Fatalf("procs=%d chose %s, serial chose %s", procs, last, serialPlan)
			}
		})
	}
}

// BenchmarkGenerate measures parallel ground-truth dataset generation
// at several worker counts; the dataset is bit-identical across
// sub-benchmarks by construction (per-sample derived seeds).
func BenchmarkGenerate(b *testing.B) {
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := meta.Generate(context.Background(), meta.DatasetConfig{
					Seed: 3, N: 16, Batches: 3, Procs: procs,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
