package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"autopipe"
	"autopipe/internal/journal"
	"autopipe/internal/server"
)

func TestScheduleDependsOnlyOnSeed(t *testing.T) {
	const window = 4 * time.Second
	for _, w := range Workloads {
		a, b := w.Schedule(7, window), w.Schedule(7, window)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different schedules", w.Name)
		}
		if reflect.DeepEqual(a, w.Schedule(8, window)) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.Name)
		}
		if len(a) != w.JobCount(window) {
			t.Errorf("%s: %d arrivals, want %d", w.Name, len(a), w.JobCount(window))
		}
		perSpec := make([]int, len(w.Specs))
		for i, ar := range a {
			if ar.At < 0 || ar.At >= window || (i > 0 && ar.At < a[i-1].At) {
				t.Fatalf("%s: arrival %d at %v is out of order or outside the window", w.Name, i, ar.At)
			}
			perSpec[ar.Spec]++
		}
		for i, n := range perSpec {
			if n != perSpec[0] {
				t.Errorf("%s: spec %d submitted %d times, spec 0 %d times", w.Name, i, n, perSpec[0])
			}
		}
	}
}

// rawProfile is `go tool pprof -raw` output in the toolchain's format:
// samples list location ids leaf first; a location's extra lines are the
// callers inlined into it.
const rawProfile = `PeriodType: cpu nanoseconds
Period: 10000000
Samples:
samples/count cpu/nanoseconds
          2   20000000: 1 2 3
          1   10000000: 4 3
                role:[gen]
          3   30000000: 5 6
          1   10000000: 7
          1   10000000: 8 3
Locations
     1: 0x4069ea M=1 runtime.mapaccess2_fast64 /go/src/runtime/map.go:10:0 s=0
     2: 0x4beab1 M=1 autopipe/internal/netsim.(*Network).computeRates /src/internal/netsim/netsim.go:20:0 s=0
     3: 0x4becc4 M=1 autopipe/internal/server.(*Registry).run /src/internal/server/registry.go:30:0 s=0
     4: 0x406a35 M=1 net/http.(*Client).Do /go/src/net/http/client.go:40:0 s=0
     5: 0x406bc0 M=1 runtime.memmove /go/src/runtime/memmove.s:50:0 s=0
             autopipe.(*Job).snapshot /src/job.go:60:0 s=0
     6: 0x46fe00 M=1 autopipe/internal/autopipe.(*Controller).decide /src/internal/autopipe/controller.go:70:0 s=0
     7: 0x406a2a M=1 runtime.gcBgMarkWorker /go/src/runtime/mgc.go:80:0 s=0
     8: 0x406c2f M=1 autopipe/bench.goid /src/bench/trace.go:90:0 s=0
Mappings
1: 0x400000/0x800000/0x0 /bin/autopipe-bench  [FN]
`

func TestAttributeInnermostAutopipeFrame(t *testing.T) {
	got, err := attributeRaw(strings.NewReader(rawProfile))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"netsim":      20 * time.Millisecond, // map access under netsim, not the server frame above it
		bucketGen:     10 * time.Millisecond, // labelled by the generator
		"autopipe":    30 * time.Millisecond, // an inlined autopipe frame beats the controller caller
		bucketOther:   10 * time.Millisecond, // no autopipe frame at all
		bucketTracing: 10 * time.Millisecond,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("attribution = %v, want %v", got, want)
	}
	for fn, b := range map[string]string{
		"autopipe/internal/netsim.New.func1":   "netsim",
		"autopipe/internal/autopipe.New":       "controller",
		"autopipe/internal/model.ResNet50":     bucketMisc,
		"autopipe/cmd/autopiped.run":           bucketMisc,
		"autopipe.NewJob":                      "autopipe",
		"autopipeish.F":                        "",
		"type:.eq.autopipe/internal/sim.Event": "",
	} {
		if got := bucketOfFunc(fn); got != b {
			t.Errorf("bucketOfFunc(%q) = %q, want %q", fn, got, b)
		}
	}
}

// BENCHMARK.json defines the benchmark for its users; it must name
// exactly the workloads and metrics this package produces.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		Spec
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range Workloads {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, want)
	}
	check := func(kind string, spec []SpecMetric, defs []metricDef) {
		if len(spec) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(spec), len(defs))
			return
		}
		for i, d := range defs {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if s := spec[i]; s.Name != d.name || s.Unit != d.unit || s.Better != better {
				t.Errorf("%s metric %d: BENCHMARK.json %s %s %s, code %s %s %s",
					kind, i, s.Name, s.Unit, s.Better, d.name, d.unit, better)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	same := []float64{101, 100, 99, 100, 101, 99, 100, 100, 99, 101}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	for _, c := range []struct {
		b    []float64
		want string
	}{{faster, "improved"}, {slower, "regressed"}, {same, "unchanged"}, {noisy, "unresolved"}} {
		if got, _ := verdict(parent, c.b, false, &bound); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
	if got, _ := verdict(parent, slower, true, nil); got != "improved" {
		t.Errorf("higher-is-better without a bound: %s, want improved", got)
	}
}

// TestSmoke runs every workload for about a second, traced and in-process,
// and checks the layer each workload was chosen for shows up.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := Run(context.Background(), Config{
				Workload: w, Seed: 1, Window: time.Second, Trace: true,
				WorkDir: t.TempDir(), Setups: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Counts["done"] == 0 {
				t.Fatalf("run failed: counts %v", res.Counts)
			}
			for _, d := range perLayer {
				if _, ok := res.PerLayer[d.name]; !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
			for _, d := range endToEnd {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("end-to-end metric %s missing", d.name)
				}
			}
			fleetCalls := res.PerLayer["fleet.replicate_calls_per_job"].Value
			if (w.Daemons > 1) != (fleetCalls > 0) {
				t.Errorf("fleet.replicate_calls_per_job = %v with %d daemons", fleetCalls, w.Daemons)
			}
			if d := res.PerLayer["controller.decisions_per_job"].Value; w.Name == "tiny-jobs" && d != 0 {
				t.Errorf("tiny-jobs made %v controller decisions per job, want 0", d)
			}
			if d := res.PerLayer["job.checkpoints_per_job"].Value; (w.Name == "paper-mix") != (d > 0) {
				t.Errorf("%s took %v checkpoints per job", w.Name, d)
			}
		})
	}
}

// jobConfig builds the autopipe job a catalogue spec describes, as the
// daemon's JobSpec.build does for the fields the workloads use.
func jobConfig(tb testing.TB, s server.JobSpec) (autopipe.JobConfig, int) {
	var m *autopipe.Model
	if s.Uniform != nil {
		m = autopipe.UniformModel(s.Uniform.Layers, 1e9, 1000)
	} else {
		var err error
		if m, err = autopipe.ModelByName(s.Model); err != nil {
			tb.Fatal(err)
		}
	}
	cl := autopipe.Testbed(autopipe.Gbps(25))
	cfg := autopipe.JobConfig{Model: m, Cluster: cl, Workers: autopipe.Workers(cl.NumGPUs()),
		Scheme: autopipe.RingAllReduce}
	if s.Scheme == "PS" {
		cfg.Scheme = autopipe.ParameterServer
	}
	if s.ChurnSeed != nil {
		cfg.Dynamics = autopipe.ChurnTrace(*s.ChurnSeed, 60)
	}
	return cfg, s.Batches
}

// BenchmarkJobRun is one job rung: NewJob + Run over every distinct spec
// of a workload (one op = the whole catalogue).
func BenchmarkJobRun(b *testing.B) {
	for _, w := range Workloads {
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, s := range w.Specs {
					cfg, batches := jobConfig(b, s)
					if _, err := autopipe.RunJob(context.Background(), cfg, batches); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// blockedRegistry returns a pool-of-one registry whose only pool slot is
// held by a job parked in its first checkpoint until release is called,
// so submissions stay queued and no job runs in the background.
func blockedRegistry(b *testing.B, maxQueue int) (reg *server.Registry, release func()) {
	parked, unpark := make(chan struct{}), make(chan struct{})
	var first, park sync.Once
	reg = server.NewRegistryWithOptions(server.Options{
		PoolSize: 1, MaxQueue: maxQueue,
		ConfigureJob: func(cfg *autopipe.JobConfig) {
			first.Do(func() {
				cfg.CheckpointEvery = 1
				cfg.OnCheckpoint = func(autopipe.Checkpoint) {
					park.Do(func() {
						close(parked)
						<-unpark
					})
				}
			})
		},
	})
	if _, err := reg.Submit(soakJob); err != nil {
		b.Fatal(err)
	}
	<-parked
	return reg, func() {
		close(unpark)
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // cancel every queued job rather than running it
		reg.Shutdown(ctx)
	}
}

// BenchmarkRegistrySubmit is the admission rung: Submit of the tiny job
// when it is accepted (queued) and when it is shed with ErrQueueFull.
func BenchmarkRegistrySubmit(b *testing.B) {
	spec := Workloads[1].Specs[0]
	b.Run("accept", func(b *testing.B) {
		// A fresh registry every perRegistry submissions bounds the memory
		// queued jobs hold.
		const perRegistry = 1000
		var reg *server.Registry
		release := func() {}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%perRegistry == 0 {
				b.StopTimer()
				release()
				reg, release = blockedRegistry(b, perRegistry)
				b.StartTimer()
			}
			if _, err := reg.Submit(spec); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		release()
	})
	b.Run("shed", func(b *testing.B) {
		reg, release := blockedRegistry(b, 1)
		defer release()
		if _, err := reg.Submit(spec); err != nil { // fills the queue
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := reg.Submit(spec); !errors.Is(err, server.ErrQueueFull) {
				b.Fatalf("submit to a full queue: %v", err)
			}
		}
		b.StopTimer()
	})
}

// BenchmarkJournalAppend is the durability rung: one op is one durable
// Append of a submitted-job-sized record, from 1, 2 or 8 concurrent
// appenders sharing group commits.
func BenchmarkJournalAppend(b *testing.B) {
	data, err := json.Marshal(map[string]any{"id": "job-0001", "spec": Workloads[0].Specs[0]})
	if err != nil {
		b.Fatal(err)
	}
	for _, appenders := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("appenders=%d", appenders), func(b *testing.B) {
			jl, _, err := journal.Open(b.TempDir(), journal.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer jl.Close()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			errs := make(chan error, appenders)
			for a := 0; a < appenders; a++ {
				n := b.N / appenders
				if a < b.N%appenders {
					n++
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n; i++ {
						rec := journal.Record{Type: journal.TypeSubmitted, JobID: "job-0001", Fence: 1, Data: data}
						if err := jl.Append(rec); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
		})
	}
}
