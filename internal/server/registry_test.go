package server

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"autopipe"
)

// smallSpec is a job that finishes in well under a second of real time.
func smallSpec() JobSpec {
	return JobSpec{Model: "uniform", Uniform: &UniformSpec{Layers: 8}, Batches: 10}
}

// hugeSpec is a job that cannot finish during a test and must be
// cancelled.
func hugeSpec() JobSpec {
	return JobSpec{Model: "uniform", Uniform: &UniformSpec{Layers: 8}, Batches: 50_000_000}
}

func waitState(t *testing.T, r *Registry, id string, want autopipe.JobState) JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		info, err := r.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status.State == want {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, info.Status.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func drain(t *testing.T, r *Registry) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	r.Shutdown(ctx) // cancels whatever is still alive
}

// invalidSpecs are specs admission must refuse with a validation
// error: TestSubmitValidation and TestInvalidSpecParity share them.
func invalidSpecs() map[string]JobSpec {
	return map[string]JobSpec{
		"no model":       {Batches: 10},
		"unknown model":  {Model: "GPT9", Batches: 10},
		"no batches":     {Model: "AlexNet"},
		"bad scheme":     {Model: "AlexNet", Batches: 10, Scheme: "ipoib"},
		"bad gpu":        {Model: "AlexNet", Batches: 10, GPU: "TPU", Servers: 2},
		"bad workers":    {Model: "AlexNet", Batches: 10, Workers: 99},
		"bad trace kind": {Model: "AlexNet", Batches: 10, Trace: []TraceEvent{{At: 1, Kind: "warp"}}},
		"churn and trace": {Model: "AlexNet", Batches: 10,
			ChurnSeed: new(int64), Trace: []TraceEvent{{At: 1, Kind: "add_job"}}},
		"too many layers": {Model: "uniform", Uniform: &UniformSpec{Layers: maxUniformLayers + 1}, Batches: 10},
		"huge layers":     {Model: "uniform", Uniform: &UniformSpec{Layers: 100_000}, Batches: 10},
		"too many gpus":   {Model: "AlexNet", Batches: 10, Servers: 17, GPUsPerServer: 4},
		"too many servers": {Model: "AlexNet", Batches: 10, Servers: maxClusterGPUs + 1,
			GPUsPerServer: 1},
		"gpus overflow":      {Model: "AlexNet", Batches: 10, Servers: 1 << 40, GPUsPerServer: 1 << 40},
		"too many competing": {Model: "AlexNet", Batches: 10, CompetingJobs: maxCompetingJobs + 1},
	}
}

func TestSubmitValidation(t *testing.T) {
	r := NewRegistry(1)
	for name, spec := range invalidSpecs() {
		if _, err := r.Submit(spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRegistryRunsJobToCompletion(t *testing.T) {
	r := NewRegistry(2)
	info, err := r.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, r, info.ID, autopipe.JobDone)
	if done.Result == nil || done.Result.Batches != 10 {
		t.Fatalf("done job has no result: %+v", done)
	}
	if done.Status.Iteration != 10 || done.Status.Throughput <= 0 {
		t.Fatalf("final status = %+v", done.Status)
	}
	if err := r.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDoneViewCarriesResult polls Get in a tight loop while jobs finish:
// the terminal state and the result are published together, so no view
// may show a done job without its result.
func TestDoneViewCarriesResult(t *testing.T) {
	r := NewRegistry(1)
	defer drain(t, r)
	spec := JobSpec{Model: "uniform", Uniform: &UniformSpec{Layers: 2}, Batches: 1}
	deadline := time.Now().Add(30 * time.Second)
	for n := 0; n < 200; n++ {
		info, err := r.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		for info.Status.State != autopipe.JobDone {
			if info.Status.State != autopipe.JobQueued && info.Status.State != autopipe.JobRunning {
				t.Fatalf("job %s ended in %s", info.ID, info.Status.State)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", info.ID, info.Status.State)
			}
			if info, err = r.Get(info.ID); err != nil {
				t.Fatal(err)
			}
		}
		if info.Result == nil {
			t.Fatalf("job %s (#%d) reported done without a result", info.ID, n)
		}
	}
}

func TestRegistryConcurrentSubmitStatusCancel(t *testing.T) {
	r := NewRegistry(4)
	const goroutines = 8
	const perG = 4
	var wg sync.WaitGroup
	ids := make(chan string, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				info, err := r.Submit(smallSpec())
				if err != nil {
					t.Error(err)
					return
				}
				ids <- info.ID
				// Hammer the read paths while jobs run.
				r.Get(info.ID)
				r.ListViews()
				WriteMetrics(discard{}, r)
				if (g+i)%3 == 0 {
					if _, err := r.CancelView(info.ID); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(ids)
	if err := r.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	n := 0
	for id := range ids {
		info, err := r.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		switch info.Status.State {
		case autopipe.JobDone, autopipe.JobCancelled:
		default:
			t.Errorf("job %s finished in state %s", id, info.Status.State)
		}
		n++
	}
	if listed := listInfos(t, r); n != goroutines*perG || len(listed) != n {
		t.Fatalf("registry lost jobs: %d submitted, %d listed", n, len(listed))
	}
}

// listInfos decodes every job's ListViews entry, in submission order.
func listInfos(t *testing.T, r *Registry) []JobInfo {
	t.Helper()
	views, err := r.ListViews()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]JobInfo, len(views))
	for i, v := range views {
		if err := json.Unmarshal(v, &out[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestWorkerPoolSaturation(t *testing.T) {
	r := NewRegistry(1)
	defer drain(t, r)
	first, err := r.Submit(hugeSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, first.ID, autopipe.JobRunning)
	second, err := r.Submit(hugeSpec())
	if err != nil {
		t.Fatal(err)
	}
	// With a single pool slot occupied, the second job must sit queued.
	for i := 0; i < 20; i++ {
		info, err := r.Get(second.ID)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status.State != autopipe.JobQueued {
			t.Fatalf("second job reached %s while pool saturated", info.Status.State)
		}
		time.Sleep(time.Millisecond)
	}
	if d := r.Depth(); d != 1 {
		t.Fatalf("Depth() = %d, want 1", d)
	}
	// Freeing the slot lets the queued job run.
	if _, err := r.CancelView(first.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, r, first.ID, autopipe.JobCancelled)
	waitState(t, r, second.ID, autopipe.JobRunning)
	if _, err := r.CancelView(second.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, r, second.ID, autopipe.JobCancelled)
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	r := NewRegistry(1)
	defer drain(t, r)
	first, err := r.Submit(hugeSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, first.ID, autopipe.JobRunning)
	second, err := r.Submit(hugeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.CancelView(second.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CancelView(first.ID); err != nil {
		t.Fatal(err)
	}
	info := waitState(t, r, second.ID, autopipe.JobCancelled)
	if info.Status.Iteration != 0 {
		t.Fatalf("cancelled-while-queued job made progress: %+v", info.Status)
	}
}

func TestRegistryShutdownRefusesAndDrains(t *testing.T) {
	r := NewRegistry(2)
	info, err := r.Submit(hugeSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, info.ID, autopipe.JobRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := r.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded (forced cancel)", err)
	}
	if _, err := r.Submit(smallSpec()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after shutdown = %v, want ErrClosed", err)
	}
	got, err := r.Get(info.ID)
	if err != nil || got.Status.State != autopipe.JobCancelled {
		t.Fatalf("job after forced drain: %+v, %v", got.Status.State, err)
	}
}

func TestGetUnknown(t *testing.T) {
	r := NewRegistry(1)
	if _, err := r.Get("job-9999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get unknown = %v", err)
	}
	if _, err := r.CancelView("job-9999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel unknown = %v", err)
	}
}
