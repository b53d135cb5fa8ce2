package autopipe

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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

// goroutineID returns the calling goroutine's id, read from the header
// line of its stack trace ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// recordingBatch is the analytic predictor with every PredictSpeedBatch
// call recorded by the goroutine it ran on, and optionally slowed by
// perRow per candidate to look like a costly predictor.
type recordingBatch struct {
	meta.AnalyticPredictor
	perRow time.Duration
	mu     sync.Mutex
	calls  []string
}

func (r *recordingBatch) PredictSpeedBatch(p *profile.Profile, base partition.Plan, plans []partition.Plan,
	miniBatch int, h *meta.History, out []float64) {
	r.mu.Lock()
	r.calls = append(r.calls, goroutineID())
	r.mu.Unlock()
	time.Sleep(r.perRow * time.Duration(len(plans)))
	r.AnalyticPredictor.PredictSpeedBatch(p, base, plans, miniBatch, h, out)
}

// TestScoreBatchedFansOutByCost: a cheap batched round is scored by one
// call on the caller's goroutine, however many procs are allowed; a
// round whose measured cost spans several fan-out budgets is split
// across goroutines once the cost is known; the scores are the same.
func TestScoreBatchedFansOutByCost(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	prof, start, m := optimizeFixture(t)
	plans := partition.NeighborsWithMerge(start)
	if len(plans) < 8 {
		t.Fatalf("only %d candidates", len(plans))
	}
	caller := goroutineID()
	round := func(ss *scoreSet) []float64 {
		t.Helper()
		clear(ss.cache) // every round re-scores the whole set
		got, err := ss.scores(plans)
		if err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), got...)
	}

	cheap := &recordingBatch{}
	ss := newScoreSet(context.Background(), cheap, prof, m.MiniBatch, nil, 4)
	want := round(ss) // not measured yet: inline
	for i := 0; i < 4; i++ {
		// An analytic candidate costs about a microsecond on an
		// uninstrumented build. Pin that measurement so neither the race
		// detector's slowdown nor a host stall makes the round costly.
		ss.nsPerCand = 1000
		round(ss)
	}
	if len(cheap.calls) != 5 {
		t.Fatalf("cheap rounds: %d PredictSpeedBatch calls, want 5", len(cheap.calls))
	}
	for i, g := range cheap.calls {
		if g != caller {
			t.Fatalf("cheap round %d scored on goroutine %s, not the caller's %s", i, g, caller)
		}
	}

	// Several budgets' worth per round, but fewer chunks than candidates.
	costly := &recordingBatch{perRow: 4 * fanOutBudget / time.Duration(len(plans))}
	ss = newScoreSet(context.Background(), costly, prof, m.MiniBatch, nil, 4)
	first := round(ss)
	if len(costly.calls) != 1 || costly.calls[0] != caller {
		t.Fatalf("unmeasured round: calls on %v, want one on the caller %s", costly.calls, caller)
	}
	second := round(ss)
	fanned := costly.calls[1:]
	if len(fanned) < 2 || len(fanned) > 4 {
		t.Fatalf("measured costly round: %d calls, want 2–4 chunks", len(fanned))
	}
	for _, g := range fanned {
		if g == caller {
			t.Fatalf("costly round scored a chunk on the caller's goroutine: %v", fanned)
		}
	}
	for i := range want {
		if first[i] != want[i] || second[i] != want[i] {
			t.Fatalf("candidate %d: scores %v, %v vs inline %v", i, first[i], second[i], want[i])
		}
	}
}
