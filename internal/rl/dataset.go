package rl

import (
	"context"
	"fmt"
	"math/rand"

	"autopipe/internal/cluster"
	"autopipe/internal/meta"
	"autopipe/internal/model"
	"autopipe/internal/netsim"
	"autopipe/internal/partition"
	"autopipe/internal/pipeline"
	"autopipe/internal/profile"
	"autopipe/internal/sim"
	"autopipe/internal/work"
)

// ScenarioConfig parametrises counterfactual decision generation.
type ScenarioConfig struct {
	// Seed derives every scenario's private RNG (scenario i uses
	// work.SplitSeed(Seed, i)), making the dataset a pure function of
	// (Seed, N, Horizon) at any parallelism. When zero, a root seed is
	// drawn from Rng instead (or 1 if Rng is also nil).
	Seed int64
	// Rng is the legacy seed source, consulted only when Seed is zero.
	Rng *rand.Rand
	// N is the number of decisions to generate.
	N int
	// Horizon is the batch count over which the two branches are
	// compared (default 12).
	Horizon int
	// Procs bounds parallel counterfactual simulation (<=0 selects
	// GOMAXPROCS). The dataset is bit-identical at any setting.
	Procs int
}

// maxScenarioAttempts bounds rejection sampling per decision.
const maxScenarioAttempts = 256

// GenerateDecisions produces offline-training data by exploiting the
// simulator's ability to run counterfactuals: for each sampled scenario
// — an environment shift arriving mid-training — both the "stay" branch
// and the "switch" branch are executed, and the faster branch labels the
// optimal action. Scenarios run in parallel on cfg.Procs goroutines;
// each derives its own RNG from the root seed, so the output is
// bit-identical at every procs setting. On cancellation the context's
// error is returned.
func GenerateDecisions(ctx context.Context, cfg ScenarioConfig) ([]Decision, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	root := cfg.Seed
	if root == 0 {
		if cfg.Rng != nil {
			root = cfg.Rng.Int63()
		} else {
			root = 1
		}
	}
	if cfg.Horizon < 4 {
		cfg.Horizon = 12
	}
	return work.MapSlice(ctx, cfg.N, cfg.Procs, func(_ context.Context, i int) (Decision, error) {
		rng := rand.New(rand.NewSource(work.SplitSeed(root, i)))
		for a := 0; a < maxScenarioAttempts; a++ {
			if d, ok := generateOne(rng, cfg.Horizon); ok {
				return d, nil
			}
		}
		return Decision{}, fmt.Errorf("rl: scenario %d rejected %d times; config cannot produce decisions", i, maxScenarioAttempts)
	})
}

func generateOne(rng *rand.Rand, horizon int) (Decision, bool) {
	// Workload: synthetic models keep the DES cheap; shapes vary.
	L := 6 + rng.Intn(10)
	m := model.Uniform(L, (1+9*rng.Float64())*1e10, int64(5e4+rng.Float64()*5e5))
	for i := range m.Layers {
		m.Layers[i].FLOPs *= 0.4 + 1.2*rng.Float64()
		m.Layers[i].Params = int64(1e5 + rng.Float64()*5e7)
	}
	before := []float64{10, 25, 40, 100}[rng.Intn(4)]
	cl := cluster.Testbed(cluster.Gbps(before))
	workers := []int{0, 1, 2, 3}
	pr := profile.NewProfiler(m, cl)
	cm := partition.NewPipeDreamCost(m, cl, 0, pr.SeedBandwidthBps())
	cur := partition.PipeDream(cm, workers)
	if cur.Validate(m.NumLayers(), cl.NumGPUs()) != nil {
		return Decision{}, false
	}

	// Environment shift.
	switch rng.Intn(3) {
	case 0:
		cl.SetNICBandwidth(cluster.Gbps([]float64{10, 25, 40, 100}[rng.Intn(4)]))
	case 1:
		cl.AddCompetingJob()
	default:
		cl.SetExtShareAll(0.3 + 0.4*rng.Float64())
	}

	// Candidate: best neighbour under the analytic predictor on the
	// post-shift profile (what the controller would propose).
	_ = pr.SetSmoothing(1)
	prof := pr.Observe()
	pred := meta.AnalyticPredictor{Scheme: netsim.RingAllReduce}
	bestPlan := cur
	bestSpeed := pred.PredictSpeed(prof, cur, m.MiniBatch, nil)
	curSpeed := bestSpeed
	for _, q := range partition.NeighborsWithMerge(cur) {
		if s := pred.PredictSpeed(prof, q, m.MiniBatch, nil); s > bestSpeed {
			bestSpeed, bestPlan = s, q
		}
	}
	if bestPlan.Equal(cur) {
		return Decision{}, false // no candidate worth deciding about
	}

	// Counterfactual branches.
	stay := branchTime(m, cl, cur, nil, horizon)
	swTo := bestPlan
	sw := branchTime(m, cl, cur, &swTo, horizon)
	if stay <= 0 || sw <= 0 {
		return Decision{}, false
	}
	state := State{
		Profile:   prof,
		MiniBatch: m.MiniBatch,
		Current:   cur, Candidate: bestPlan,
		PredCurrent: curSpeed, PredCandidate: bestSpeed,
		SwitchCost:  meta.AnalyticSwitchCost(prof, m, cur, bestPlan),
		FineGrained: pipeline.BoundaryCompatible(cur, bestPlan),
	}
	return Decision{X: Encode(state), Switch: sw < stay}, true
}

// branchTime measures the wall time to finish `horizon` batches starting
// from plan cur, optionally switching to `to` immediately.
func branchTime(m *model.Model, cl *cluster.Cluster, cur partition.Plan, to *partition.Plan, horizon int) float64 {
	eng := sim.NewEngine()
	net := netsim.New(eng, cl)
	e, err := pipeline.NewAsync(eng, net, pipeline.Config{
		Model: m, Cluster: cl, Plan: cur, Scheme: netsim.RingAllReduce,
	})
	if err != nil {
		return -1
	}
	e.Start(horizon)
	if to != nil {
		if err := e.ApplyPlan(*to, pipeline.SwitchAuto, nil); err != nil {
			return -1
		}
	}
	eng.RunAll()
	if e.Completed() != horizon {
		return -1
	}
	return float64(eng.Now())
}
