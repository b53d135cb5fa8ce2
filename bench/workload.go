// Package bench is the repository benchmark: it drives the autopiped job
// service with four workloads and reports end-to-end metrics (spawned
// daemons, untraced) or per-layer metrics (daemons hosted in-process,
// traced and CPU-profiled). See README.md for the metric definitions,
// bounds and the reason each workload exists.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"autopipe/internal/server"
)

// Workload is one fixed traffic mix. Its parameters are pinned here and
// in BENCHMARK.json; only the seed varies between runs.
type Workload struct {
	Name string
	// Rate is the offered load in jobs per second.
	Rate float64
	// Specs is the job catalogue submissions are drawn from.
	Specs []server.JobSpec
	// Daemons is 1 for a single autopiped, more for a fleet.
	Daemons  int
	Pool     int
	MaxQueue int
}

// Workloads lists every workload in BENCHMARK.json order; README.md says
// why each exists.
var Workloads = []Workload{
	// The paper's job population: the simulator and planner dominate. One
	// pool slot at about 40% of a core leaves the other core to HTTP: with
	// two slots on two cores a submission often waits for a simulation's
	// scheduler slice, and admission latency then follows the host's
	// CPU steal rather than the daemon.
	{Name: "paper-mix", Rate: 12, Specs: paperCatalogue(), Daemons: 1, Pool: 1, MaxQueue: 256},
	// HTTP, admission and journal appends dominate; no controller work.
	{
		Name: "tiny-jobs", Rate: 150,
		Specs:   []server.JobSpec{{Model: "uniform", Uniform: &server.UniformSpec{Layers: 2}, Batches: 1}},
		Daemons: 1, Pool: 2, MaxQueue: 256,
	},
	// 1.6–2.2x capacity, so the queue stays full even when the host runs
	// fast, and the 429 path runs. One pool slot leaves a core for HTTP,
	// so the generator's two workers keep up with submissions and 5 ms
	// polls of the few jobs a short queue holds: with pool 2 and a 32-deep
	// queue the daemon starves its own handlers and polls back up by
	// seconds.
	{Name: "overload", Rate: 200, Specs: []server.JobSpec{soakJob}, Daemons: 1, Pool: 1, MaxQueue: 8},
	// The only workload through the fleet layer. Three pool slots share
	// two cores, so the rate keeps simulations from holding both most of
	// the time.
	{Name: "fleet-3", Rate: 25, Specs: []server.JobSpec{soakJob}, Daemons: 3, Pool: 1, MaxQueue: 256},
}

// soakJob is autopipe-load's default job: an 8-layer uniform model for
// 10 batches.
var soakJob = server.JobSpec{Model: "uniform", Uniform: &server.UniformSpec{Layers: 8}, Batches: 10}

// paperCatalogue is the paper's evaluation population: every zoo model
// under both synchronisation schemes, four seeded shared-cluster churn
// traces and two training lengths, with reconfiguration on — 80 specs.
func paperCatalogue() []server.JobSpec {
	var out []server.JobSpec
	for _, model := range []string{"ResNet50", "VGG16", "BERT48", "GoogLeNet", "AlexNet"} {
		for _, scheme := range []string{"Ring", "PS"} {
			for churn := int64(1); churn <= 4; churn++ {
				for _, batches := range []int{50, 100} {
					seed := churn
					out = append(out, server.JobSpec{Model: model, Scheme: scheme, Batches: batches, ChurnSeed: &seed})
				}
			}
		}
	}
	return out
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// Arrival is one scheduled submission.
type Arrival struct {
	At   time.Duration // offset from the start of the load phase
	Spec int           // index into Workload.Specs
	// FirstPoll is how long after the 201 the job is first polled, in
	// [0, pollEvery): a random phase, so that the 5 ms poll grid dithers
	// turnaround rather than rounding every job's completion up to the
	// same grid point.
	FirstPoll time.Duration
}

// JobCount is the number of submissions in a window: the rate times the
// window, rounded to whole passes over the catalogue, so every spec is
// submitted equally often and the job mix does not depend on the seed.
func (w Workload) JobCount(window time.Duration) int {
	n := int(math.Round(w.Rate * window.Seconds()))
	if k := len(w.Specs); k > 1 {
		n = k * int(math.Round(float64(n)/float64(k)))
	}
	if n < len(w.Specs) {
		n = len(w.Specs)
	}
	return n
}

// Schedule draws the open-loop arrival schedule for one run from the
// seed alone. Arrival times are a Poisson process conditioned on exactly
// JobCount arrivals in the window (sorted uniform draws), so the offered
// load is the same on every seed; the spec order is a fresh seeded
// permutation of the catalogue per pass.
func (w Workload) Schedule(seed int64, window time.Duration) []Arrival {
	rng := rand.New(rand.NewSource(seed))
	n := w.JobCount(window)
	at := make([]float64, n)
	for i := range at {
		at[i] = rng.Float64() * float64(window)
	}
	sort.Float64s(at)
	out := make([]Arrival, n)
	var perm []int
	for i := range out {
		if len(perm) == 0 {
			perm = rng.Perm(len(w.Specs))
		}
		out[i] = Arrival{At: time.Duration(at[i]), Spec: perm[0],
			FirstPoll: time.Duration(rng.Int63n(int64(pollEvery)))}
		perm = perm[1:]
	}
	return out
}

// bodies renders each catalogue spec as its POST /v1/jobs body.
func (w Workload) bodies() ([][]byte, error) {
	out := make([][]byte, len(w.Specs))
	for i, s := range w.Specs {
		b, err := json.Marshal(s)
		if err != nil {
			return nil, fmt.Errorf("encoding %s spec %d: %w", w.Name, i, err)
		}
		out[i] = b
	}
	return out, nil
}
