package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autopipe"
	"autopipe/internal/journal"
)

// TestRetryAfterDerivation pins the 429 Retry-After estimator: queue
// depth over observed drain rate, clamped to [1, 30], with a cold-start
// floor of 1.
func TestRetryAfterDerivation(t *testing.T) {
	r := NewRegistry(1)
	base := time.Unix(1_700_000_000, 0)
	now := base
	r.now = func() time.Time { return now }
	retryAfter := func(depth int) int {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.retryAfterLocked(depth)
	}

	// No drain history yet: fall back to the minimum.
	if got := retryAfter(10); got != MinRetryAfterSec {
		t.Fatalf("cold-start Retry-After = %d, want %d", got, MinRetryAfterSec)
	}

	// 10 departures over 5s → 2 jobs/s; a depth of 10 should suggest 5s.
	for i := 0; i < 10; i++ {
		r.mu.Lock()
		r.noteDrainLocked(base.Add(time.Duration(i) * 500 * time.Millisecond))
		r.mu.Unlock()
	}
	now = base.Add(5 * time.Second)
	if got := retryAfter(10); got != 5 {
		t.Fatalf("Retry-After = %d with depth 10 at 2 jobs/s over 5s, want 5", got)
	}

	// A shallow queue on the same rate clamps to the floor.
	if got := retryAfter(1); got != MinRetryAfterSec {
		t.Fatalf("Retry-After = %d with depth 1, want %d", got, MinRetryAfterSec)
	}

	// A stalled pool (no drains for 100s) pushes the estimate into the
	// ceiling: the idle time since the last departure counts against
	// the rate.
	now = base.Add(100 * time.Second)
	if got := retryAfter(1000); got != MaxRetryAfterSec {
		t.Fatalf("Retry-After = %d with a stalled deep queue, want %d", got, MaxRetryAfterSec)
	}

	// Empty queue: nothing to wait for. The public method reads the
	// live (empty) queue.
	if got := retryAfter(0); got != MinRetryAfterSec {
		t.Fatalf("Retry-After = %d with empty queue, want %d", got, MinRetryAfterSec)
	}
	if got := r.RetryAfterSeconds(); got != MinRetryAfterSec {
		t.Fatalf("RetryAfterSeconds() = %d with empty queue, want %d", got, MinRetryAfterSec)
	}

	// The ring only remembers the newest drainWindow entries: ancient
	// history must not dilute a recent fast drain.
	now = base.Add(200 * time.Second)
	for i := 0; i < drainWindow; i++ {
		r.mu.Lock()
		r.noteDrainLocked(now.Add(-time.Duration(drainWindow-i) * 100 * time.Millisecond))
		r.mu.Unlock()
	}
	// 64 drains over ~6.4s → ~10/s; depth 12 → ceil(1.2s) = 2s.
	if got := retryAfter(12); got != 2 {
		t.Fatalf("Retry-After = %d after window refill, want 2", got)
	}
}

// parkedRegistry builds a pool-of-one registry from opts and submits a
// blocker job that parks in its first checkpoint, holding the only
// worker until release is called, so later submissions stay queued.
// An opts.ConfigureJob runs for every job, the blocker included.
// Cleanup releases the blocker and shuts the registry down.
func parkedRegistry(t *testing.T, opts Options) (r *Registry, blocker JobInfo, release func()) {
	t.Helper()
	parked, unpark := make(chan struct{}), make(chan struct{})
	var first, park sync.Once
	opts.PoolSize = 1
	configure := opts.ConfigureJob
	opts.ConfigureJob = func(cfg *autopipe.JobConfig) {
		if configure != nil {
			configure(cfg)
		}
		first.Do(func() {
			cfg.CheckpointEvery = 1
			cfg.OnCheckpoint = func(autopipe.Checkpoint) {
				park.Do(func() {
					close(parked)
					<-unpark
				})
			}
		})
	}
	r = NewRegistryWithOptions(opts)
	t.Cleanup(func() { drain(t, r) }) // cancels whatever is still alive
	release = sync.OnceFunc(func() { close(unpark) })
	t.Cleanup(release) // runs first: a parked worker would wedge the drain
	blocker, err := r.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-parked
	return r, blocker, release
}

// TestShedCostsNoJobBuild pins the shed path's cost: a full queue
// refuses before the spec is built, so a 429 allocates next to nothing
// (building the job it would discard costs well over 150 allocations).
func TestShedCostsNoJobBuild(t *testing.T) {
	r, _, _ := parkedRegistry(t, Options{MaxQueue: 1})
	if _, err := r.Submit(smallSpec()); err != nil { // fills the queue
		t.Fatal(err)
	}
	spec := smallSpec()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := r.Submit(spec); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("submit to a full queue = %v, want ErrQueueFull", err)
		}
	})
	if allocs > 20 {
		t.Fatalf("shed submission allocates %.0f times, want ≤ 20", allocs)
	}
	// Shedding comes before validation: an invalid spec is shed too.
	if _, err := r.Submit(JobSpec{Model: "GPT9"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("invalid spec at a full queue = %v, want ErrQueueFull", err)
	}
}

// TestSubmitNotDurable: a submission whose spec cannot be journaled is
// refused with ErrNotDurable (503 over HTTP) and leaves no trace — no
// job, no queue slot, no admission — apart from the journal error.
func TestSubmitNotDurable(t *testing.T) {
	jl, _, err := journal.Open(t.TempDir(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistryWithOptions(Options{PoolSize: 1, Journal: jl})
	ts := newHTTPServer(t, New(r), r)
	jl.Close() // every later append fails
	before := r.Counters()

	if _, err := r.SubmitWithID("job-lost", smallSpec()); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Submit on a failed journal = %v, want ErrNotDurable", err)
	}
	if _, err := r.Get("job-lost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of the refused job = %v, want ErrNotFound", err)
	}
	if n, d := len(listInfos(t, r)), r.Depth(); n != 0 || d != 0 {
		t.Fatalf("refused job left %d listed, depth %d", n, d)
	}
	c := r.Counters()
	if c.Admitted != before.Admitted || c.JournalErrors != before.JournalErrors+1 {
		t.Fatalf("counters admitted/journal errors = %d/%d, want %d/%d",
			c.Admitted, c.JournalErrors, before.Admitted, before.JournalErrors+1)
	}
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/jobs", smallSpec(), nil); code != 503 {
		t.Fatalf("HTTP submit on a failed journal = %d: %s", code, raw)
	}
}

// TestAdmissionAccountingUnderBursts fires one burst of concurrent
// submissions, with concurrent Cancel churn (run under -race in CI), at
// a registry whose only pool slot is held by a parked job, so nothing
// leaves the queue during the burst. The registry's conservation laws
// then pin exact counts: exactly maxQueue submissions are admitted and
// the rest shed, and at the end every admitted job is accounted for in
// exactly one lifecycle state.
func TestAdmissionAccountingUnderBursts(t *testing.T) {
	const (
		maxQueue      = 64
		overflow      = 32
		cancelWorkers = 4
	)
	r, blocker, release := parkedRegistry(t, Options{MaxQueue: maxQueue})

	var admitted, shed atomic.Int64
	ids := make(chan string, maxQueue+overflow)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < maxQueue+overflow; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			info, err := r.Submit(smallSpec())
			switch {
			case err == nil:
				admitted.Add(1)
				ids <- info.ID
			case errors.Is(err, ErrQueueFull):
				shed.Add(1)
			default:
				t.Errorf("Submit: %v", err)
			}
		}()
	}
	// Concurrent cancel churn against whatever has been admitted.
	cancelDone := make(chan struct{})
	for c := 0; c < cancelWorkers; c++ {
		go func() {
			for {
				select {
				case id := <-ids:
					if _, err := r.CancelView(id); err != nil {
						t.Errorf("Cancel(%s): %v", id, err)
					}
				case <-cancelDone:
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(cancelDone)

	// A cancelled job keeps its queue slot until it reaches the blocked
	// pool, so cancels cannot open room mid-burst and the split is exact.
	if admitted.Load() != maxQueue || shed.Load() != overflow {
		t.Fatalf("admitted/shed = %d/%d, want %d/%d", admitted.Load(), shed.Load(), maxQueue, overflow)
	}
	if d := r.Depth(); d != maxQueue {
		t.Fatalf("Depth() = %d after the burst, want %d", d, maxQueue)
	}
	c := r.Counters()
	if c.Admitted != admitted.Load()+1 || c.Shed != shed.Load() {
		t.Fatalf("counters admitted/shed = %d/%d, callers saw %d/%d plus the blocker",
			c.Admitted, c.Shed, admitted.Load(), shed.Load())
	}

	// Every admitted job must end in exactly one state, and the queue
	// must fully drain once the blocker moves on.
	if _, err := r.CancelView(blocker.ID); err != nil {
		t.Fatal(err)
	}
	release()
	deadline := time.Now().Add(60 * time.Second)
	for {
		counts := r.StateCounts()
		total := 0
		for _, n := range counts {
			total += n
		}
		if total != maxQueue+1 {
			t.Fatalf("state counts sum to %d, want %d admitted plus the blocker (%v)", total, maxQueue, counts)
		}
		if counts[autopipe.JobQueued] == 0 && counts[autopipe.JobRunning] == 0 {
			if r.Depth() != 0 {
				t.Fatalf("Depth() = %d after all jobs settled", r.Depth())
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never settled: %v", counts)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNoShedBelowCapacity: a serial filler must never see 429 until the
// queue is exactly full.
func TestNoShedBelowCapacity(t *testing.T) {
	const maxQueue = 8
	r := NewRegistryWithOptions(Options{PoolSize: 1, MaxQueue: maxQueue})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		r.Shutdown(ctx) // cancels whatever is still alive
	}()
	// One running job pins the pool; the queue then fills one by one.
	if _, err := r.Submit(hugeSpec()); err != nil {
		t.Fatal(err)
	}
	waitForDepthBelow(t, r, 1) // the huge job claimed the pool slot
	for i := 0; i < maxQueue; i++ {
		if _, err := r.Submit(hugeSpec()); err != nil {
			t.Fatalf("submit %d/%d with queue below capacity: %v", i+1, maxQueue, err)
		}
	}
	if _, err := r.Submit(hugeSpec()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit beyond capacity = %v, want ErrQueueFull", err)
	}
	for _, info := range listInfos(t, r) {
		if _, err := r.CancelView(info.ID); err != nil {
			t.Fatal(err)
		}
	}
}

func waitForDepthBelow(t *testing.T, r *Registry, depth int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r.Depth() >= depth {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth stuck at %d", r.Depth())
		}
		time.Sleep(time.Millisecond)
	}
}
