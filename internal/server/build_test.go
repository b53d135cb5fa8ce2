package server

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"autopipe"
	"autopipe/internal/journal"
)

// buildCounter is a ConfigureJob hook counting builds per job. The
// hook sees no job id, so each job in a test gets its own uniform layer
// count and builds are keyed by it.
type buildCounter struct {
	mu    sync.Mutex
	calls map[int]int
}

func (b *buildCounter) hook(cfg *autopipe.JobConfig) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.calls == nil {
		b.calls = map[int]int{}
	}
	b.calls[cfg.Model.NumLayers()]++
}

func (b *buildCounter) of(layers int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.calls[layers]
}

// layered is the small job with its own layer count.
func layered(layers, batches int) JobSpec {
	return JobSpec{Model: "uniform", Uniform: &UniformSpec{Layers: layers}, Batches: batches}
}

// TestBuildOnlyJobsThatRun: the worker is the one build site, so a job
// is built exactly once if it runs, and never while it is queued, when
// it is shed, or when it is cancelled before a worker reaches it —
// which then finishes cancelled with no progress and no plan.
func TestBuildOnlyJobsThatRun(t *testing.T) {
	var builds buildCounter
	r, blocker, release := parkedRegistry(t, Options{MaxQueue: 2, ConfigureJob: builds.hook})
	const cancelled, runs, shed = 3, 4, 5
	q1, err := r.Submit(layered(cancelled, 10))
	if err != nil {
		t.Fatal(err)
	}
	q2, err := r.Submit(layered(runs, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(layered(shed, 10)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}
	if _, err := r.CancelView(q1.ID); err != nil {
		t.Fatal(err)
	}
	for _, layers := range []int{cancelled, runs, shed} {
		if n := builds.of(layers); n != 0 {
			t.Fatalf("%d-layer job built %d times while queued or shed", layers, n)
		}
	}
	release()
	waitState(t, r, blocker.ID, autopipe.JobDone)
	waitState(t, r, q2.ID, autopipe.JobDone)
	info := waitState(t, r, q1.ID, autopipe.JobCancelled)
	if info.Status.Iteration != 0 || len(info.Status.Plan.Stages) != 0 {
		t.Fatalf("cancelled-while-queued job = %+v, want no progress and no plan", info.Status)
	}
	if a, b, c := builds.of(cancelled), builds.of(runs), builds.of(shed); a != 0 || b != 1 || c != 0 {
		t.Fatalf("builds: cancelled %d, ran %d, shed %d; want 0, 1, 0", a, b, c)
	}
}

// TestBuildNoneRefusedAtDrain: a queued job refused at drain is never
// built.
func TestBuildNoneRefusedAtDrain(t *testing.T) {
	var builds buildCounter
	r, blocker, release := parkedRegistry(t, Options{ConfigureJob: builds.hook})
	queued, err := r.Submit(layered(3, 10))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.Shutdown(context.Background()) }()
	waitFor(t, "the registry to close", func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.closed
	})
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	waitState(t, r, blocker.ID, autopipe.JobDone)
	if info := waitState(t, r, queued.ID, autopipe.JobCancelled); info.Status.Error != ErrClosed.Error() {
		t.Fatalf("refused job = %+v, want the ErrClosed reason", info.Status)
	}
	if n := builds.of(3); n != 0 {
		t.Fatalf("refused job built %d times", n)
	}
}

// TestBuildNoneOnRecover: Recover re-queues specs without building
// them; a recovered job is built once, by the worker that runs it, and
// one cancelled before that is never built.
func TestBuildNoneOnRecover(t *testing.T) {
	rec := func(typ journal.Type, id string, payload any) journal.Record {
		data, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		return journal.Record{Type: typ, JobID: id, Fence: 1, Data: data}
	}
	const hog, waits, cancelled = 3, 4, 5
	hogSpec := hugeSpec()
	hogSpec.Uniform = &UniformSpec{Layers: hog}
	var builds buildCounter
	r := NewRegistryWithOptions(Options{PoolSize: 1, ConfigureJob: builds.hook})
	defer drain(t, r)
	stats, err := r.Recover([]journal.Record{
		rec(journal.TypeSubmitted, "job-0001", submittedRec{ID: "job-0001", Spec: hogSpec}),
		rec(journal.TypeState, "job-0001", stateRec{ID: "job-0001", State: autopipe.JobRunning}),
		rec(journal.TypeSubmitted, "job-0002", submittedRec{ID: "job-0002", Spec: layered(waits, 10)}),
		rec(journal.TypeSubmitted, "job-0003", submittedRec{ID: "job-0003", Spec: layered(cancelled, 10)}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Restarted != 1 || stats.Requeued != 2 {
		t.Fatalf("recover stats = %+v, want 1 restarted and 2 re-queued", stats)
	}
	if a, b := builds.of(waits), builds.of(cancelled); a != 0 || b != 0 {
		t.Fatalf("Recover built re-queued jobs: %d and %d builds", a, b)
	}
	waitState(t, r, "job-0001", autopipe.JobRunning)
	if _, err := r.CancelView("job-0003"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CancelView("job-0001"); err != nil {
		t.Fatal(err)
	}
	waitState(t, r, "job-0002", autopipe.JobDone)
	waitState(t, r, "job-0003", autopipe.JobCancelled)
	if a, b, c := builds.of(hog), builds.of(waits), builds.of(cancelled); a != 1 || b != 1 || c != 0 {
		t.Fatalf("builds: restarted %d, re-queued %d, cancelled %d; want 1, 1, 0", a, b, c)
	}
}

// TestBuildErrorFailsJob: a spec that validated at admission can still
// fail to build in the worker (here ConfigureJob installs an initial
// plan that does not fit the model). The acknowledged job is not lost
// or left queued: it finishes failed with the build error, journaled.
func TestBuildErrorFailsJob(t *testing.T) {
	var (
		mu        sync.Mutex
		completed []journal.Record
	)
	r := NewRegistryWithOptions(Options{
		PoolSize: 1,
		ConfigureJob: func(cfg *autopipe.JobConfig) {
			plan := autopipe.PlanEvenSplit(autopipe.UniformModel(2, 1e9, 1000), cfg.Workers)
			cfg.InitialPlan = &plan
		},
		OnRecord: func(rec journal.Record) {
			if rec.Type == journal.TypeCompleted {
				mu.Lock()
				completed = append(completed, rec)
				mu.Unlock()
			}
		},
	})
	defer drain(t, r)
	info, err := r.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, r, info.ID, autopipe.JobFailed)
	if !strings.HasPrefix(got.Status.Error, "build: ") || got.Status.Iteration != 0 {
		t.Fatalf("job that failed to build = %+v, want a build error and no progress", got.Status)
	}
	waitFor(t, "the completion record", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(completed) > 0
	})
	drain(t, r)
	mu.Lock()
	defer mu.Unlock()
	if len(completed) != 1 || completed[0].JobID != info.ID {
		t.Fatalf("completion records = %d, want 1 for %s", len(completed), info.ID)
	}
}

// TestBuildRace: Cancel, FenceOut and Kill can reach a job while its
// worker is still building it. The request is kept for the worker,
// which installs the Job and applies it before Run: the job ends
// cancelled with no progress, and no running record escapes.
func TestBuildRace(t *testing.T) {
	for _, tc := range []struct {
		name string
		halt func(t *testing.T, r *Registry, id string)
		// visible reports whether the job stays listed.
		visible bool
	}{
		{"cancel", func(t *testing.T, r *Registry, id string) { r.CancelView(id) }, true},
		{"fence-out", func(t *testing.T, r *Registry, id string) {
			if !r.FenceOut(id, 2) {
				t.Error("FenceOut of a building job refused")
			}
		}, false},
		{"kill", func(t *testing.T, r *Registry, id string) { r.Kill() }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			building, proceed := make(chan struct{}), make(chan struct{})
			var (
				mu       sync.Mutex
				recorded []journal.Record
			)
			r := NewRegistryWithOptions(Options{
				PoolSize: 1, CheckpointEvery: 2,
				ConfigureJob: func(*autopipe.JobConfig) {
					close(building)
					<-proceed
				},
				OnRecord: func(rec journal.Record) {
					mu.Lock()
					recorded = append(recorded, rec)
					mu.Unlock()
				},
			})
			defer drain(t, r)
			info, err := r.Submit(hugeSpec())
			if err != nil {
				t.Fatal(err)
			}
			<-building
			m, _ := r.lookup(info.ID)
			tc.halt(t, r, info.ID)
			close(proceed)
			waitFor(t, "the job to finish", func() bool {
				m.mu.Lock()
				defer m.mu.Unlock()
				return m.done != nil
			})
			got := r.info(m)
			if got.Status.State != autopipe.JobCancelled || got.Status.Iteration != 0 {
				t.Fatalf("job halted mid-build = %+v, want cancelled at iteration 0", got.Status)
			}
			if _, err := r.Get(info.ID); (err == nil) != tc.visible {
				t.Fatalf("Get after %s = %v", tc.name, err)
			}
			mu.Lock()
			defer mu.Unlock()
			for _, rec := range recorded {
				if rec.Type == journal.TypeState {
					t.Fatalf("a running record escaped: %s", rec.Data)
				}
			}
		})
	}
}

// TestInvalidSpecParity: admission validates a spec without building
// its job, so every invalid spec must still be refused with a 400 —
// never acknowledged with a 201 and failed later — and valid specs,
// up to the size bounds, must build.
func TestInvalidSpecParity(t *testing.T) {
	r := NewRegistry(1)
	defer drain(t, r)
	ts := newHTTPServer(t, New(r), r)
	invalid := invalidSpecs()
	for name, events := range invalidChaos() {
		spec := smallSpec()
		spec.Chaos = events
		invalid["chaos "+name] = spec
	}
	for name, events := range invalidTraces() {
		spec := smallSpec()
		spec.Trace = events
		invalid["trace "+name] = spec
	}
	for name, spec := range invalid {
		if _, err := r.Submit(spec); err == nil {
			t.Errorf("%s: Submit accepted", name)
		}
		if code, raw := doJSON(t, "POST", ts.URL+"/v1/jobs", spec, nil); code != 400 {
			t.Errorf("%s: POST = %d, want 400: %s", name, code, raw)
		}
	}

	valid := map[string]JobSpec{
		"max layers":     {Model: "uniform", Uniform: &UniformSpec{Layers: maxUniformLayers}, Batches: 1},
		"max cluster":    {Model: "AlexNet", Batches: 1, Servers: 16, GPUsPerServer: 4},
		"more gpus":      {Model: "uniform", Uniform: &UniformSpec{Layers: 2}, Batches: 1, Servers: 16, GPUsPerServer: 4},
		"max competing":  {Model: "AlexNet", Batches: 1, CompetingJobs: maxCompetingJobs},
		"every chaos":    crashSpec(),
		"custom cluster": {Model: "AlexNet", Batches: 5, Servers: 3, GPUsPerServer: 4, GPU: "V100", BandwidthGbps: 100, Workers: 6},
	}
	for _, model := range []string{"ResNet50", "VGG16", "AlexNet", "BERT48", "GoogLeNet"} {
		for _, scheme := range []string{"Ring", "PS"} {
			valid[model+" "+scheme] = JobSpec{Model: model, Scheme: scheme, Batches: 1}
		}
	}
	for name, spec := range valid {
		cfg, batches, err := spec.build()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if _, err := autopipe.NewJob(cfg, batches); err != nil {
			t.Errorf("%s: validates but does not build: %v", name, err)
		}
	}
}
