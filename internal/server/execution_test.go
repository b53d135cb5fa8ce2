package server

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"autopipe"
	"autopipe/internal/journal"
)

// TestRunQueueFIFO: queued jobs start in submission order — the order of
// their running records equals the order Submit acknowledged them.
func TestRunQueueFIFO(t *testing.T) {
	var mu sync.Mutex
	var started []string
	r, blocker, release := parkedRegistry(t, Options{
		OnRecord: func(rec journal.Record) {
			if rec.Type == journal.TypeState {
				mu.Lock()
				started = append(started, rec.JobID)
				mu.Unlock()
			}
		},
	})
	want := []string{blocker.ID}
	for i := 0; i < 20; i++ {
		info, err := r.Submit(smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, info.ID)
	}
	release()
	for _, id := range want[1:] {
		waitState(t, r, id, autopipe.JobDone)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(started) != len(want) {
		t.Fatalf("%d jobs started, want %d", len(started), len(want))
	}
	for i := range want {
		if started[i] != want[i] {
			t.Fatalf("start order %v, want submission order %v", started, want)
		}
	}
}

// TestGoroutineBoundWithQueuedJobs: a queued job holds no goroutine. With
// the pool of one blocked and 200 jobs queued, the registry runs only
// its worker and the watchdog.
func TestGoroutineBoundWithQueuedJobs(t *testing.T) {
	const queued = 200
	before := runtime.NumGoroutine()
	r, _, _ := parkedRegistry(t, Options{})
	for i := 0; i < queued; i++ {
		if _, err := r.Submit(smallSpec()); err != nil {
			t.Fatal(err)
		}
	}
	if d := r.Depth(); d != queued {
		t.Fatalf("Depth() = %d, want %d", d, queued)
	}
	if grew := runtime.NumGoroutine() - before; grew > r.PoolSize()+2 {
		t.Fatalf("%d queued jobs grew the goroutine count by %d, want ≤ %d",
			queued, grew, r.PoolSize()+2)
	}
}

// holdSubmission returns an OnRecord hook that holds job id's submitted
// record inside its journal append: journaling is closed once the append
// is held, and the append returns when proceed is called. Callers defer
// proceed, so a failed test cannot wedge the registry's drain.
func holdSubmission(id string) (hook func(journal.Record), journaling chan struct{}, proceed func()) {
	journaling, release := make(chan struct{}), make(chan struct{})
	hook = func(rec journal.Record) {
		if rec.Type == journal.TypeSubmitted && rec.JobID == id {
			close(journaling)
			<-release
		}
	}
	proceed = sync.OnceFunc(func() { close(release) })
	return hook, journaling, proceed
}

// TestDrainWaitsForInFlightAdmission: Shutdown racing a submission that
// is still journaling returns once the submission settles. Every idle
// worker is woken then, not only the one that pops and refuses the job,
// so none is left waiting for work that will never come.
func TestDrainWaitsForInFlightAdmission(t *testing.T) {
	hook, journaling, proceed := holdSubmission("job-late")
	defer proceed()
	r := NewRegistryWithOptions(Options{PoolSize: 2, OnRecord: hook})
	submitted := make(chan error, 1)
	go func() {
		_, err := r.SubmitWithID("job-late", smallSpec())
		submitted <- err
	}()
	<-journaling
	done := make(chan error, 1)
	go func() { done <- r.Shutdown(context.Background()) }()
	waitFor(t, "shutdown to close the registry", func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.closed
	})
	time.Sleep(20 * time.Millisecond) // let the woken workers wait again
	proceed()
	if err := <-submitted; err != nil {
		t.Fatalf("in-flight submission = %v, want acknowledged", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung waiting for idle workers")
	}
	info, err := r.Get("job-late")
	if err != nil || info.Status.State != autopipe.JobCancelled || info.Status.Error != ErrClosed.Error() {
		t.Fatalf("job admitted during drain = %+v (%v), want refused with ErrClosed", info.Status, err)
	}
	if c := r.Counters(); c.DrainRefused != 1 {
		t.Fatalf("DrainRefused = %d, want 1", c.DrainRefused)
	}
}

// TestDetachQueuedTakesInFlightAdmission: DetachQueued waits for a
// submission that holds a queue slot but is still journaling, and hands
// it off with the queued jobs, because its client was acknowledged.
func TestDetachQueuedTakesInFlightAdmission(t *testing.T) {
	hook, journaling, proceed := holdSubmission("job-late")
	defer proceed()
	r, _, _ := parkedRegistry(t, Options{OnRecord: hook})
	queued, err := r.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	submitted := make(chan error, 1)
	go func() {
		_, err := r.SubmitWithID("job-late", smallSpec())
		submitted <- err
	}()
	<-journaling
	detached := make(chan []QueuedJob, 1)
	go func() { detached <- r.DetachQueued() }()
	time.Sleep(20 * time.Millisecond) // let DetachQueued start waiting
	proceed()
	if err := <-submitted; err != nil {
		t.Fatalf("in-flight submission = %v, want acknowledged", err)
	}
	out := <-detached
	if len(out) != 2 || out[0].ID != queued.ID || out[1].ID != "job-late" {
		t.Fatalf("DetachQueued = %+v, want %s and job-late", out, queued.ID)
	}
	if _, err := r.Get("job-late"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("detached in-flight job still listed: %v", err)
	}
	if d := r.Depth(); d != 0 {
		t.Fatalf("Depth() after detach = %d, want 0", d)
	}
}

// TestRunEndedShowsRunningUntilFrozen: a job whose run has ended but
// that finish has not frozen yet is presented as running — by Get, the
// state counts and fencing's done guard alike — and without a result,
// so whoever sees a job done can export its completion. Once finish
// freezes it, all of them show done.
func TestRunEndedShowsRunningUntilFrozen(t *testing.T) {
	r := NewRegistry(1)
	defer drain(t, r)
	m := &managedJob{id: "job-ended", spec: smallSpec(), fence: 1}
	j, err := r.newJob(m, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := j.Status().State; st != autopipe.JobDone {
		t.Fatalf("run ended in %s, want done", st)
	}
	m.job = j
	r.mu.Lock()
	r.addLocked(m)
	r.settleLocked()
	r.mu.Unlock()

	info, err := r.Get(m.id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status.State != autopipe.JobRunning || info.Result != nil {
		t.Fatalf("unfrozen job presents %s (result %v), want running without a result", info.Status.State, info.Result != nil)
	}
	if n := r.StateCounts()[autopipe.JobDone]; n != 0 {
		t.Fatalf("state counts show %d done jobs before the freeze", n)
	}
	if r.jobDone(m) {
		t.Fatal("fencing's done guard holds a job Get shows running")
	}
	for _, rec := range r.ExportRecords(m.id) {
		if rec.Type == journal.TypeCompleted {
			t.Fatal("an unfrozen job exported a completion")
		}
	}

	r.finish(m, "", "")
	if info, _ := r.Get(m.id); info.Status.State != autopipe.JobDone || info.Result == nil {
		t.Fatalf("frozen job presents %s (result %v), want done with its result", info.Status.State, info.Result != nil)
	}
	if !r.jobDone(m) || r.StateCounts()[autopipe.JobDone] != 1 {
		t.Fatal("a frozen done job is not done to fencing and the state counts")
	}
}

// TestFailedAppendStillObserved: a record whose journal append fails
// still reaches OnRecord — the job keeps the state it describes, so a
// fleet successor must learn it — except a submission, which the
// failure refuses.
func TestFailedAppendStillObserved(t *testing.T) {
	jl, _, err := journal.Open(t.TempDir(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var seen payloads
	r, _, release := parkedRegistry(t, Options{Journal: jl, OnRecord: seen.record})
	queued, err := r.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	jl.Close() // every append from here on fails
	if _, err := r.Submit(smallSpec()); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("submit on a closed journal = %v, want ErrNotDurable", err)
	}
	release()
	waitState(t, r, queued.ID, autopipe.JobDone)
	for _, typ := range []journal.Type{journal.TypeState, journal.TypeCompleted} {
		if _, ok := seen.last(queued.ID, typ); !ok {
			t.Errorf("OnRecord never saw %s's record of type %d", queued.ID, typ)
		}
	}
	seen.mu.Lock()
	defer seen.mu.Unlock()
	submitted := 0
	for _, rec := range seen.recs {
		if rec.Type == journal.TypeSubmitted {
			submitted++
		}
	}
	if submitted != 2 {
		t.Fatalf("OnRecord saw %d submissions, want the 2 accepted ones", submitted)
	}
}
