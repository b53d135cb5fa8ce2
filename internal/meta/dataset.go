package meta

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"autopipe/internal/cluster"
	"autopipe/internal/model"
	"autopipe/internal/netsim"
	"autopipe/internal/partition"
	"autopipe/internal/pipeline"
	"autopipe/internal/profile"
	"autopipe/internal/work"
)

// DatasetConfig parametrises synthetic-environment dataset generation
// for offline training. The simulator itself is the ground truth: for
// every sampled (environment, partition) pair we run the pipeline engine
// and record the measured normalized speed.
type DatasetConfig struct {
	// Seed derives every sample's private RNG (sample i uses
	// work.SplitSeed(Seed, i)), making the dataset a pure function of
	// (Seed, N, ...) at any parallelism. When zero, a root seed is drawn
	// from Rng instead (or 1 if Rng is also nil).
	Seed int64
	// Rng is the legacy seed source, consulted only when Seed is zero.
	Rng *rand.Rand
	// N is the number of samples to generate.
	N int
	// Models to sample workloads from; defaults to a mix of synthetic
	// models plus AlexNet (cheap to simulate).
	Models []*model.Model
	// Batches per ground-truth measurement (default 6).
	Batches int
	// Workers in the sampled jobs (default 4; ≤ testbed size 10).
	Workers int
	// Procs bounds parallel ground-truth simulation (<=0 selects
	// GOMAXPROCS). The dataset is bit-identical at any setting.
	Procs int
	// Stats, when non-nil, receives generation telemetry.
	Stats *GenStats
}

// GenStats aggregates dataset-generation telemetry. WorkSeconds sums
// per-sample simulation time across workers, so WorkSeconds/WallSeconds
// estimates the realised parallel speedup.
type GenStats struct {
	// Attempts counts sampled (environment, partition) pairs, including
	// the ones rejected because the simulation stalled.
	Attempts    int64
	WallSeconds float64
	WorkSeconds float64
}

// Speedup estimates the realised parallel speedup (aggregate simulation
// time over elapsed time); 0 when nothing ran.
func (g GenStats) Speedup() float64 {
	if g.WallSeconds <= 0 {
		return 0
	}
	return g.WorkSeconds / g.WallSeconds
}

// maxSampleAttempts bounds rejection sampling per sample: a draw whose
// simulation stalls (or measures a degenerate ideal) is retried with the
// sample's own RNG stream; exceeding the cap reports a config problem.
const maxSampleAttempts = 256

// Generate produces labelled samples by running the simulator in
// parallel on cfg.Procs goroutines. Sample i is generated from its own
// RNG seeded with work.SplitSeed(root, i), so the output is a pure
// function of the root seed — bit-identical at every procs setting —
// and generation order cannot leak between samples. On cancellation the
// context's error is returned.
func Generate(ctx context.Context, cfg DatasetConfig) ([]Sample, error) {
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
	if cfg.Batches < 2 {
		cfg.Batches = 6
	}
	if cfg.Workers < 2 {
		cfg.Workers = 4
	}
	if len(cfg.Models) == 0 {
		cfg.Models = []*model.Model{
			model.Uniform(8, 3e10, 200000),
			model.Uniform(12, 1e10, 400000),
			model.AlexNet(),
		}
	}
	wallStart := time.Now()
	var attempts, workNanos atomic.Int64
	out, err := work.MapSlice(ctx, cfg.N, cfg.Procs, func(_ context.Context, i int) (Sample, error) {
		t0 := time.Now()
		defer func() { workNanos.Add(int64(time.Since(t0))) }()
		rng := rand.New(rand.NewSource(work.SplitSeed(root, i)))
		for a := 0; a < maxSampleAttempts; a++ {
			attempts.Add(1)
			if s, ok := generateOne(rng, cfg); ok {
				return s, nil
			}
		}
		return Sample{}, fmt.Errorf("meta: sample %d rejected %d times; config cannot produce valid measurements", i, maxSampleAttempts)
	})
	if cfg.Stats != nil {
		cfg.Stats.Attempts += attempts.Load()
		cfg.Stats.WallSeconds += time.Since(wallStart).Seconds()
		cfg.Stats.WorkSeconds += time.Duration(workNanos.Load()).Seconds()
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// generateOne draws one (environment, partition) pair from rng, measures
// it on the discrete-event simulator, and returns the labelled sample.
// ok is false when the draw must be rejected (stalled run or degenerate
// ideal throughput).
func generateOne(rng *rand.Rand, cfg DatasetConfig) (Sample, bool) {
	m := cfg.Models[rng.Intn(len(cfg.Models))]
	// Sample an environment.
	bwGbps := []float64{10, 25, 40, 100}[rng.Intn(4)] * (0.8 + 0.4*rng.Float64())
	cl := cluster.Testbed(cluster.Gbps(bwGbps))
	if j := rng.Intn(3); j > 0 {
		for k := 0; k < j; k++ {
			cl.AddCompetingJob()
		}
	}
	if rng.Intn(2) == 0 {
		cl.SetExtShareAll(0.4 * rng.Float64())
	}
	workers := make([]int, cfg.Workers)
	for i := range workers {
		workers[i] = i
	}
	// Sample a partition: PipeDream's plan, randomly perturbed. The
	// cost model is seeded with the profiler's nominal line rate — what
	// a planner knows before measuring.
	pr := profile.NewProfiler(m, cl)
	cm := partition.NewPipeDreamCost(m, cl, 0, pr.SeedBandwidthBps())
	plan := partition.PipeDream(cm, workers)
	for steps := rng.Intn(4); steps > 0; steps-- {
		ns := partition.NeighborsWithMerge(plan)
		if len(ns) == 0 {
			break
		}
		plan = ns[rng.Intn(len(ns))]
	}
	scheme := netsim.SyncScheme(rng.Intn(2))
	// Ground truth from the DES.
	res, err := pipeline.MeasureAsync(pipeline.Config{
		Model: m, Cluster: cl, Plan: plan, Scheme: scheme,
	}, cfg.Batches)
	if err != nil {
		return Sample{}, false
	}
	prof := pr.Observe()
	ideal := IdealThroughput(prof, m.MiniBatch)
	if ideal <= 0 {
		return Sample{}, false
	}
	h := &History{}
	steps := 3 + rng.Intn(SeqLen-2)
	for i := 0; i < steps; i++ {
		h.Push(EncodeDynamicStep(prof, res.Throughput/ideal))
	}
	return Sample{
		F: BuildFeatures(prof, plan, m.MiniBatch, h),
		Y: res.Throughput / ideal,
	}, true
}

// Split partitions samples into train/test at the given test fraction.
func Split(samples []Sample, testFrac float64, rng *rand.Rand) (train, test []Sample) {
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	if rng != nil {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}
	nTest := int(float64(len(samples)) * testFrac)
	for i, k := range idx {
		if i < nTest {
			test = append(test, samples[k])
		} else {
			train = append(train, samples[k])
		}
	}
	return train, test
}
