package meta

import (
	"math/rand"
	"testing"

	"autopipe/internal/cluster"
	"autopipe/internal/model"
	"autopipe/internal/netsim"
	"autopipe/internal/partition"
	"autopipe/internal/profile"
)

// randBasePlan carves a random valid plan over the model's layers,
// mixing single- and multi-replica stages so every term family
// (compute, sync, boundary) is exercised.
func randBasePlan(rng *rand.Rand, layers, workers int) partition.Plan {
	numStages := 2 + rng.Intn(4)
	if numStages > layers {
		numStages = layers
	}
	// Random distinct boundaries.
	cuts := map[int]bool{}
	for len(cuts) < numStages-1 {
		cuts[1+rng.Intn(layers-1)] = true
	}
	bounds := []int{0}
	for l := 1; l < layers; l++ {
		if cuts[l] {
			bounds = append(bounds, l)
		}
	}
	bounds = append(bounds, layers)
	p := partition.Plan{InFlight: 1 + rng.Intn(4)}
	w := 0
	for i := 0; i+1 < len(bounds); i++ {
		stagesLeft := len(bounds) - 1 - i
		reps := 1 + rng.Intn(3)
		// Never starve a later stage of its one worker; the last stage
		// absorbs the remainder.
		if maxReps := workers - w - (stagesLeft - 1); reps > maxReps {
			reps = maxReps
		}
		if stagesLeft == 1 {
			reps = workers - w
		}
		ws := make([]int, reps)
		for j := range ws {
			ws[j] = w
			w++
		}
		p.Stages = append(p.Stages, partition.Stage{Start: bounds[i], End: bounds[i+1], Workers: ws})
	}
	return p
}

// TestEvaluatorMatchesFullPath pins the incremental evaluator to the
// full analytic path bit-for-bit: for randomized base plans, every
// candidate in the swap/merge/in-flight neighbourhood — plus the base
// itself and unrelated random plans — must score to the identical
// float64 under every sync scheme and SyncEvery setting.
func TestEvaluatorMatchesFullPath(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	cl.AddCompetingJob()
	m := model.ResNet50()
	prof := profile.NewProfiler(m, cl).Observe()
	rng := rand.New(rand.NewSource(11))

	configs := []AnalyticPredictor{
		{},
		{Scheme: netsim.RingAllReduce},
		{Scheme: netsim.ParameterServer, SyncEvery: 4},
		{Scheme: netsim.RingAllReduce, SyncEvery: 8},
	}
	for _, ap := range configs {
		ev := ap.NewEvaluator()
		for trial := 0; trial < 25; trial++ {
			base := randBasePlan(rng, m.NumLayers(), prof.N)
			ev.Rebase(prof, base)
			cands := []partition.Plan{base}
			cands = append(cands, partition.NeighborsWithMerge(base)...)
			cands = append(cands, partition.InFlightVariants(base, 0)...)
			// Plans unrelated to the base exercise the all-fresh path.
			cands = append(cands, randBasePlan(rng, m.NumLayers(), prof.N))
			for ci, q := range cands {
				got := ev.PredictSpeed(q, m.MiniBatch)
				want := ap.PredictSpeed(prof, q, m.MiniBatch, nil)
				if got != want {
					t.Fatalf("config %+v trial %d cand %d (%s): delta %v != full %v",
						ap, trial, ci, q, got, want)
				}
			}
		}
	}
}

// TestEvaluatorRebaseMemo verifies consecutive Rebase calls with the
// same (profile, base, config) skip the term rebuild, and that changing
// any of the three invalidates the memo.
func TestEvaluatorRebaseMemo(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.ResNet50()
	prof := profile.NewProfiler(m, cl).Observe()
	rng := rand.New(rand.NewSource(7))
	base := randBasePlan(rng, m.NumLayers(), prof.N)

	ap := AnalyticPredictor{}
	ev := ap.NewEvaluator()
	ev.Rebase(prof, base)
	// Scribble on a cached term: a memo hit must preserve it, a rebuild
	// must overwrite it.
	ev.base[0].stageMean += 42
	marked := ev.base[0].stageMean
	ev.Rebase(prof, base)
	if ev.base[0].stageMean != marked {
		t.Fatal("Rebase with unchanged inputs rebuilt the term cache")
	}
	other := randBasePlan(rng, m.NumLayers(), prof.N)
	for other.Hash64() == base.Hash64() {
		other = randBasePlan(rng, m.NumLayers(), prof.N)
	}
	ev.Rebase(prof, other)
	ev.Rebase(prof, base)
	if ev.base[0].stageMean == marked {
		t.Fatal("Rebase with a new base served the stale term cache")
	}
}

// TestPredictSpeedBatchMatchesSerial pins every batched predictor path
// to its serial PredictSpeed bit-for-bit, with the delta-evaluation
// base hint absent (zero Plan) and present (a neighbourhood incumbent).
func TestPredictSpeedBatchMatchesSerial(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	cl.AddCompetingJob()
	m := model.ResNet50()
	prof := profile.NewProfiler(m, cl).Observe()
	rng := rand.New(rand.NewSource(3))
	net := NewNetwork(rand.New(rand.NewSource(5)))
	h := &History{}
	h.Push(EncodeDynamicStep(prof, 0.4))
	h.Push(EncodeDynamicStep(prof, 0.6))

	preds := []struct {
		name string
		p    Predictor
	}{
		{"analytic", AnalyticPredictor{Scheme: netsim.RingAllReduce}},
		{"net", NetPredictor{Net: net}},
		{"hybrid", &HybridPredictor{Net: net, NetWeight: 0.5, Scheme: netsim.RingAllReduce}},
	}
	for _, pc := range preds {
		bp, ok := BatchCapable(pc.p)
		if !ok {
			t.Fatalf("%s: no batched path", pc.name)
		}
		for trial := 0; trial < 10; trial++ {
			base := randBasePlan(rng, m.NumLayers(), prof.N)
			plans := append([]partition.Plan{base}, partition.NeighborsWithMerge(base)...)
			out := make([]float64, len(plans))
			for _, hint := range []partition.Plan{{}, base} {
				bp.PredictSpeedBatch(prof, hint, plans, m.MiniBatch, h, out)
				for i, q := range plans {
					want := pc.p.PredictSpeed(prof, q, m.MiniBatch, h)
					if out[i] != want {
						t.Fatalf("%s trial %d plan %d hint=%d stages: batch %v != serial %v",
							pc.name, trial, i, len(hint.Stages), out[i], want)
					}
				}
			}
		}
	}
}

// TestAnalyticBatchZeroAllocs pins the analytic batched path at zero
// steady-state allocations: pooled evaluator, cached terms, caller
// buffers.
func TestAnalyticBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool fast paths are disabled under race")
	}
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.ResNet50()
	prof := profile.NewProfiler(m, cl).Observe()
	rng := rand.New(rand.NewSource(9))
	base := randBasePlan(rng, m.NumLayers(), prof.N)
	plans := append([]partition.Plan{base}, partition.NeighborsWithMerge(base)...)
	out := make([]float64, len(plans))
	ap := AnalyticPredictor{Scheme: netsim.RingAllReduce}
	ap.PredictSpeedBatch(prof, base, plans, m.MiniBatch, nil, out) // warm pools
	if n := testing.AllocsPerRun(50, func() {
		ap.PredictSpeedBatch(prof, base, plans, m.MiniBatch, nil, out)
	}); n != 0 {
		t.Fatalf("analytic PredictSpeedBatch allocates %v/op in steady state, want 0", n)
	}
}

// TestReusedProfileRebinds: a Profile refilled in place keeps its
// pointer but moves its Epoch, and both the pooled analytic scratch and
// an Evaluator must rebuild their per-profile tables from the new
// contents. A pointer-only binding check serves the stale tables here.
func TestReusedProfileRebinds(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.ResNet50()
	pr := profile.NewProfiler(m, cl)
	_ = pr.SetSmoothing(1)
	base := randBasePlan(rand.New(rand.NewSource(3)), m.NumLayers(), cl.NumGPUs())
	ap := AnalyticPredictor{Scheme: netsim.RingAllReduce}
	ev := ap.NewEvaluator()
	var reused profile.Profile
	for round := 0; round < 4; round++ {
		pr.ObserveInto(&reused)
		fresh := profile.NewProfiler(m, cl)
		_ = fresh.SetSmoothing(1)
		want := ap.PredictSpeed(fresh.Observe(), base, m.MiniBatch, nil)
		if got := ap.PredictSpeed(&reused, base, m.MiniBatch, nil); got != want {
			t.Fatalf("round %d (epoch %d): pooled scratch scored %v, want %v", round, reused.Epoch, got, want)
		}
		ev.Rebase(&reused, base)
		if got := ev.PredictSpeed(base, m.MiniBatch); got != want {
			t.Fatalf("round %d (epoch %d): evaluator scored %v, want %v", round, reused.Epoch, got, want)
		}
		// Slow one GPU and the network: the next refill moves the epoch.
		cl.SetCompetingJobs(round%cl.NumGPUs(), 2+round)
		cl.SetNICBandwidth(cluster.Gbps(10 + 10*float64(round)))
	}
}
