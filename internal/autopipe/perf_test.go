package autopipe

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"autopipe/internal/cluster"
	"autopipe/internal/meta"
	"autopipe/internal/model"
	"autopipe/internal/netsim"
	"autopipe/internal/partition"
	"autopipe/internal/profile"
)

// optimizeFixture builds the standard search workload: a BERT48 job on
// the contended testbed, ten workers, smoothed profile.
func optimizeFixture(tb testing.TB) (*profile.Profile, partition.Plan, *model.Model) {
	tb.Helper()
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
	return prof, partition.EvenSplit(m.NumLayers(), workers), m
}

// unbatched hides its predictor's PredictSpeedBatch so the search scores
// one PredictSpeed call per candidate, while still forwarding
// ConcurrentSafe so that path keeps fanning out across procs.
type unbatched struct{ meta.Predictor }

func (u unbatched) ConcurrentSafe() bool { return meta.ParallelSafe(u.Predictor) }

// TestOptimizePlanBatchAndProcsParity is the batched-search equivalence
// contract: the chosen plan is bit-identical across every procs setting,
// with batched and per-candidate scoring, for both the analytic and the
// hybrid (meta-network) predictor.
func TestOptimizePlanBatchAndProcsParity(t *testing.T) {
	prof, start, m := optimizeFixture(t)
	net := meta.NewNetwork(rand.New(rand.NewSource(21)))
	h := &meta.History{}
	h.Push(meta.EncodeDynamicStep(prof, 0.4))
	h.Push(meta.EncodeDynamicStep(prof, 0.55))

	preds := []struct {
		name string
		pred meta.Predictor
		h    *meta.History
	}{
		{"analytic", meta.AnalyticPredictor{Scheme: netsim.RingAllReduce}, nil},
		{"hybrid", &meta.HybridPredictor{Net: net, NetWeight: 0.5, Scheme: netsim.RingAllReduce}, h},
	}
	for _, pc := range preds {
		if _, ok := meta.BatchCapable(unbatched{pc.pred}); ok || !meta.ParallelSafe(unbatched{pc.pred}) {
			t.Fatalf("%s: unbatched wrapper must hide batching and keep parallel scoring", pc.name)
		}
		var want partition.Plan
		for _, procs := range []int{1, 4, 8} {
			for _, perCandidate := range []bool{false, true} {
				pred := pc.pred
				if perCandidate {
					pred = unbatched{pred}
				}
				got, err := OptimizePlan(context.Background(), prof, start, m.MiniBatch, pred,
					OptimizeOptions{MaxRounds: 6, UseMerge: true, Procs: procs, History: pc.h})
				if err != nil {
					t.Fatal(err)
				}
				if want.Stages == nil {
					want = got
					continue
				}
				if !got.Equal(want) {
					t.Fatalf("%s procs=%d perCandidate=%v chose %s, want %s",
						pc.name, procs, perCandidate, got, want)
				}
			}
		}
	}
}

// TestOptimizePlanLowAllocs pins the ISSUE's allocation budget: a full
// hill-climb on the benchmark workload must run in at most 150
// heap allocations (1% of the 15k/op baseline) once pools are warm.
func TestOptimizePlanLowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool fast paths are disabled under race")
	}
	prof, start, m := optimizeFixture(t)
	run := func() {
		_, err := OptimizePlan(context.Background(), prof, start, m.MiniBatch,
			meta.AnalyticPredictor{}, OptimizeOptions{MaxRounds: 8, UseMerge: true, Procs: 1})
		if err != nil {
			t.Fatal(err)
		}
	}
	run() // warm pools and slabs
	if n := testing.AllocsPerRun(10, run); n > 150 {
		t.Fatalf("OptimizePlan allocates %v/op, budget 150", n)
	}
}

// TestPredictSpeedParallelThroughput is the satellite guard for the
// pooled predictor scoring paths: aggregate throughput with GOMAXPROCS
// concurrent scorers must not collapse below serial throughput —
// contention (lock convoys, pool misses, false sharing) would show up
// as a large regression here. The bound is deliberately loose: on a
// single-core box parallel equals serial minus scheduling overhead.
func TestPredictSpeedParallelThroughput(t *testing.T) {
	if raceEnabled {
		t.Skip("timing bound meaningless under race instrumentation")
	}
	if testing.Short() {
		t.Skip("timing test")
	}
	prof, start, m := optimizeFixture(t)
	pred := meta.AnalyticPredictor{Scheme: netsim.RingAllReduce}
	pred.PredictSpeed(prof, start, m.MiniBatch, nil) // bind tables

	const calls = 4000
	serialStart := time.Now()
	for i := 0; i < calls; i++ {
		pred.PredictSpeed(prof, start, m.MiniBatch, nil)
	}
	serialOps := float64(calls) / time.Since(serialStart).Seconds()

	procs := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	parStart := time.Now()
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				pred.PredictSpeed(prof, start, m.MiniBatch, nil)
			}
		}()
	}
	wg.Wait()
	parOps := float64(procs*calls) / time.Since(parStart).Seconds()

	if parOps < serialOps*0.25 {
		t.Fatalf("parallel scoring collapsed: %.0f ops/s with %d goroutines vs %.0f ops/s serial",
			parOps, procs, serialOps)
	}
}

// TestControllerSearchCacheCarriesAcrossRounds: on a quiet cluster the
// profile epoch is stable, so the controller's decide rounds share one
// memo cache — repeat candidates are served without re-scoring and the
// hit rate surfaces in Stats.
func TestControllerSearchCacheCarriesAcrossRounds(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.VGG16()
	_, c := runJob(t, Config{
		Model: m, Cluster: cl, Workers: []int{0, 1, 2, 3},
		CheckEvery: 5, OracleBandwidth: true, ProfileSmoothing: 1,
	}, nil, 40)
	st := c.Stats()
	if st.Decisions < 2 {
		t.Fatalf("fixture ran %d decide rounds, need >= 2", st.Decisions)
	}
	if st.SearchCacheHits == 0 {
		t.Fatal("stable-profile decide rounds produced no cross-round cache hits")
	}
	if st.SearchCacheHitRate <= 0 || st.SearchCacheHitRate > 1 {
		t.Fatalf("SearchCacheHitRate = %v, want (0,1]", st.SearchCacheHitRate)
	}
	wantRate := float64(st.SearchCacheHits) / float64(st.SearchCacheHits+st.CandidatesScored)
	if st.SearchCacheHitRate != wantRate {
		t.Fatalf("SearchCacheHitRate = %v, want %v", st.SearchCacheHitRate, wantRate)
	}
}
