package autopipe

import (
	"context"
	"testing"

	"autopipe/internal/cluster"
	"autopipe/internal/meta"
	"autopipe/internal/model"
	"autopipe/internal/partition"
	"autopipe/internal/profile"
)

// TestOptimizePlanDeterministicAcrossProcs is the parallel-search
// determinism invariant: the chosen plan must be bit-identical at every
// worker count, because candidates land at their input index and the
// reduction stays serial.
func TestOptimizePlanDeterministicAcrossProcs(t *testing.T) {
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
	run := func(procs int) partition.Plan {
		t.Helper()
		p, err := OptimizePlan(context.Background(), prof, start, m.MiniBatch,
			meta.AnalyticPredictor{}, OptimizeOptions{MaxRounds: 8, UseMerge: true, Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	serial := run(1)
	for _, procs := range []int{2, 8} {
		if got := run(procs); !got.Equal(serial) {
			t.Fatalf("procs=%d chose %s, serial chose %s", procs, got, serial)
		}
	}
}

// TestOptimizePlanCancelReturnsPromptly: a cancelled context aborts the
// search and surfaces the context's error with the best plan so far.
func TestOptimizePlanCancelReturnsPromptly(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.VGG16()
	prof := profile.NewProfiler(m, cl).Observe()
	start := partition.EvenSplit(m.NumLayers(), []int{0, 1, 2, 3})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plan, err := OptimizePlan(ctx, prof, start, m.MiniBatch, meta.AnalyticPredictor{},
		OptimizeOptions{MaxRounds: 64})
	if err == nil {
		t.Fatal("cancelled OptimizePlan returned nil error")
	}
	if err := plan.Validate(m.NumLayers(), cl.NumGPUs()); err != nil {
		t.Fatalf("cancelled OptimizePlan returned invalid plan: %v", err)
	}
}

// TestScoreSetCacheServesRepeats: scoring the same plans twice hits the
// plan-hash cache the second time and returns identical values.
func TestScoreSetCacheServesRepeats(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.AlexNet()
	prof := profile.NewProfiler(m, cl).Observe()
	plans := partition.NeighborsWithMerge(partition.EvenSplit(m.NumLayers(), []int{0, 1, 2, 3}))
	ss := newScoreSet(context.Background(), meta.AnalyticPredictor{}, prof, m.MiniBatch, nil, 4)
	res, err := ss.scores(plans)
	if err != nil {
		t.Fatal(err)
	}
	// scores reuses its result buffer; copy before scoring again.
	first := append([]float64(nil), res...)
	if ss.stats.Candidates != len(plans) {
		t.Fatalf("scored %d candidates, want %d", ss.stats.Candidates, len(plans))
	}
	second, err := ss.scores(plans)
	if err != nil {
		t.Fatal(err)
	}
	if ss.stats.CacheHits != len(plans) {
		t.Fatalf("cache hits %d, want %d", ss.stats.CacheHits, len(plans))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("cached score %d differs: %v vs %v", i, second[i], first[i])
		}
	}
}

// TestImbalanceTableMatchesDirect cross-checks the prefix-sum imbalance
// against a direct per-layer recomputation.
func TestImbalanceTableMatchesDirect(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	cl.AddCompetingJob()
	m := model.VGG16()
	prof := profile.NewProfiler(m, cl).Observe()
	direct := func(plan partition.Plan) float64 {
		total := 0.0
		for _, s := range plan.Stages {
			mm := float64(len(s.Workers))
			for _, w := range s.Workers {
				v := 0.0
				for l := s.Start; l < s.End; l++ {
					v += prof.FP[w][l] + prof.BP[w][l]
				}
				v /= mm
				total += v * v
			}
		}
		return total
	}
	tab := newImbalanceTable(prof)
	base := partition.EvenSplit(m.NumLayers(), []int{0, 1, 2, 3})
	for _, plan := range append([]partition.Plan{base}, partition.NeighborsWithMerge(base)...) {
		got, want := tab.of(plan), direct(plan)
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("imbalance mismatch for %s: table %v direct %v", plan, got, want)
		}
	}
}
