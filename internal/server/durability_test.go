package server

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"autopipe"
	"autopipe/internal/journal"
	"autopipe/internal/meta"
	"autopipe/internal/partition"
	"autopipe/internal/profile"
)

// crashSpec is a job that crashes the daemon at its first
// weight-migration flow — i.e. exactly mid-switch, deterministically.
// The test's ConfigureJob hook starts it from an even split so the
// controller's first decision (iteration 3) migrates layers toward the
// DP optimum; the checkpoint cadence of 2 guarantees a durable
// checkpoint before that.
func crashSpec() JobSpec {
	return JobSpec{
		Model: "AlexNet", BandwidthGbps: 25, Workers: 4,
		CheckEvery: 3, Batches: 60,
		Chaos: []ChaosEventSpec{{Kind: "kill_daemon", Match: "migrate"}},
	}
}

// offOptimum is the ConfigureJob hook for crash tests: jobs carrying a
// chaos schedule start from an even split, guaranteeing the controller
// performs a genuine layer-moving switch (and hence migration flows for
// the kill_daemon trigger to match).
func offOptimum(cfg *autopipe.JobConfig) {
	if cfg.Chaos == nil {
		return
	}
	plan := autopipe.PlanEvenSplit(cfg.Model, cfg.Workers)
	cfg.InitialPlan = &plan
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShedWhenQueueFull: submissions beyond the admission queue are
// refused with ErrQueueFull and counted, not silently queued.
func TestShedWhenQueueFull(t *testing.T) {
	r := NewRegistryWithOptions(Options{PoolSize: 1, MaxQueue: 1})
	defer drain(t, r)
	first, err := r.Submit(hugeSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, first.ID, autopipe.JobRunning)
	if _, err := r.Submit(hugeSpec()); err != nil {
		t.Fatalf("submission within queue bound refused: %v", err)
	}
	if _, err := r.Submit(smallSpec()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-queue submit = %v, want ErrQueueFull", err)
	}
	if d := r.Depth(); d != 1 {
		t.Fatalf("Depth() = %d, want 1", d)
	}
	if c := r.Counters(); c.Shed != 1 || c.Admitted != 2 {
		t.Fatalf("counters = %+v, want Shed 1, Admitted 2", c)
	}
}

// TestDrainRefusesQueuedJobAtPool is the Shutdown-vs-Submit race
// regression: a queued job that wins a pool slot after drain begins
// must be refused with the ErrClosed reason, never silently dropped and
// never started.
func TestDrainRefusesQueuedJobAtPool(t *testing.T) {
	r := NewRegistryWithOptions(Options{PoolSize: 1})
	first, err := r.Submit(hugeSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, first.ID, autopipe.JobRunning)
	second, err := r.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// Forced drain cancels the running job; the queued job then acquires
	// the freed slot mid-shutdown — the exact race window.
	if err := r.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	info, err := r.Get(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status.State != autopipe.JobCancelled {
		t.Fatalf("refused job state = %s, want cancelled", info.Status.State)
	}
	if !strings.Contains(info.Status.Error, "shutting down") {
		t.Fatalf("refused job error = %q, want the ErrClosed reason", info.Status.Error)
	}
	if info.Status.Iteration != 0 {
		t.Fatalf("refused job made progress: %+v", info.Status)
	}
	if c := r.Counters(); c.DrainRefused != 1 {
		t.Fatalf("DrainRefused = %d, want 1", c.DrainRefused)
	}
}

// TestCrashRecoveryMidSwitch is the PR's kill-and-restart acceptance
// at the registry level: the daemon "crashes" (goroutine teardown via
// the chaos KillDaemon hook) in the middle of a reconfiguration switch
// with one running job (checkpointed) and one queued job. A fresh
// registry recovering from the journal must re-queue the queued job,
// resume the running one from its last checkpoint, and complete both —
// and two recoveries from the same crash image must make bit-identical
// decisions.
func TestCrashRecoveryMidSwitch(t *testing.T) {
	dir := t.TempDir()
	liveDir := filepath.Join(dir, "live")
	crashA := filepath.Join(dir, "crash-a")
	crashB := filepath.Join(dir, "crash-b")

	jl, _, err := journal.Open(liveDir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()

	// The crash trigger (first migration flow) can be reached within
	// microseconds; ready holds it back until the queued job is durably
	// in the journal, so the crash image always has one running + one
	// queued job.
	ready := make(chan struct{})
	crashed := make(chan struct{})
	var once sync.Once
	r := NewRegistryWithOptions(Options{
		PoolSize: 1, CheckpointEvery: 2, Journal: jl,
		ConfigureJob: offOptimum,
		DaemonKill: func() {
			// The hook runs on the crashing job's goroutine: snapshot the
			// journal exactly as a SIGKILL would leave it, then tear the
			// goroutine down without running any completion path.
			<-ready
			once.Do(func() {
				copyDir(t, liveDir, crashA)
				copyDir(t, liveDir, crashB)
				close(crashed)
			})
			runtime.Goexit()
		},
	})
	running, err := r.Submit(crashSpec())
	if err != nil {
		t.Fatal(err)
	}
	// The crash job must own the single pool slot before the second job
	// is submitted, so the crash image holds one running + one queued.
	waitState(t, r, running.ID, autopipe.JobRunning)
	queued, err := r.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	close(ready)
	select {
	case <-crashed:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon-kill chaos event never fired")
	}
	// At crash time the second job had never left the queue.
	drain(t, r)

	type outcome struct {
		decisions string
		batches   int
	}
	recover := func(crashDir string) outcome {
		jl2, recs, err := journal.Open(crashDir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer jl2.Close()
		r2 := NewRegistryWithOptions(Options{PoolSize: 2, CheckpointEvery: 2, Journal: jl2})
		stats, err := r2.Recover(recs)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Resumed != 1 || stats.Requeued != 1 || stats.Restarted != 0 {
			t.Fatalf("recovery stats = %+v, want 1 resumed + 1 requeued", stats)
		}
		// Both survivors must finish: the queued job from scratch, the
		// crashed job from its checkpoint with the consumed kill_daemon
		// event stripped (otherwise it would crash-loop).
		resumed := waitState(t, r2, running.ID, autopipe.JobDone)
		waitState(t, r2, queued.ID, autopipe.JobDone)
		if resumed.Result == nil || resumed.Result.Batches != 60 {
			t.Fatalf("resumed job result = %+v, want full 60-batch budget", resumed.Result)
		}
		// Fresh submissions must not collide with recovered ids.
		extra, err := r2.Submit(smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		if extra.ID == running.ID || extra.ID == queued.ID {
			t.Fatalf("recovered registry reissued id %s", extra.ID)
		}
		waitState(t, r2, extra.ID, autopipe.JobDone)
		if err := r2.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		c := r2.Counters()
		if c.RecoveredResumed != 1 || c.RecoveredRequeued != 1 {
			t.Fatalf("recovery counters = %+v", c)
		}
		dec, err := json.Marshal(resumed.Result.Decisions)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{decisions: string(dec), batches: resumed.Result.Batches}
	}
	a := recover(crashA)
	b := recover(crashB)
	// The determinism contract: resuming twice from the same checkpoint
	// produces bit-identical post-resume decision streams.
	if a.decisions != b.decisions {
		t.Fatalf("post-resume decisions diverge:\n%s\nvs\n%s", a.decisions, b.decisions)
	}
	if a.batches != b.batches {
		t.Fatalf("post-resume totals diverge: %d vs %d", a.batches, b.batches)
	}
}

// TestRecoverCompletedJobsReadOnly: finished jobs come back from the
// journal with their full result, and Cancel on them is a no-op.
func TestRecoverCompletedJobsReadOnly(t *testing.T) {
	dir := t.TempDir()
	jl, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistryWithOptions(Options{PoolSize: 2, Journal: jl})
	info, err := r.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := waitState(t, r, info.ID, autopipe.JobDone)
	if err := r.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	jl.Close()

	jl2, recs, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	r2 := NewRegistryWithOptions(Options{PoolSize: 2, Journal: jl2})
	stats, err := r2.Recover(recs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 1 || stats.Requeued+stats.Resumed+stats.Restarted != 0 {
		t.Fatalf("recovery stats = %+v, want exactly 1 completed", stats)
	}
	got, err := r2.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status.State != autopipe.JobDone || got.Result == nil ||
		got.Result.Batches != want.Result.Batches {
		t.Fatalf("restored job = %+v, want the pre-crash result", got)
	}
	if _, err := r2.CancelView(info.ID); err != nil {
		t.Fatalf("Cancel on restored finished job: %v", err)
	}
	if err := r2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverSkipsGarbage: undecodable or orphaned journal entries are
// counted and skipped, never fatal.
func TestRecoverSkipsGarbage(t *testing.T) {
	r := NewRegistryWithOptions(Options{PoolSize: 1})
	defer drain(t, r)
	stats, err := r.Recover([]journal.Record{
		{Type: journal.TypeSubmitted, JobID: "job-0001", Data: []byte("not json")},
		{Type: journal.TypeState, JobID: "job-0002", Data: []byte(`{"id":"job-0002","state":"running"}`)},
		{Type: journal.Type(99), JobID: "x", Data: []byte("{}")},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Bad JSON, an orphaned state record, and an unknown type: all skipped.
	if stats.Skipped != 3 || stats.Requeued+stats.Resumed+stats.Restarted+stats.Completed != 0 {
		t.Fatalf("stats = %+v, want 3 skipped and nothing rebuilt", stats)
	}
	if _, err := r.Submit(smallSpec()); err != nil {
		t.Fatal(err)
	}
}

// blockingPredictor stalls every plan-scoring call until the gate
// closes — a deterministic stand-in for a wedged scoring backend.
type blockingPredictor struct{ gate chan struct{} }

func (b blockingPredictor) PredictSpeed(*profile.Profile, partition.Plan, int, *meta.History) float64 {
	<-b.gate
	return 1
}

// TestWatchdogKillsStuckJob: a running job whose iteration count stops
// advancing is cancelled by the watchdog and presented as failed with
// the reason; the registry then drains cleanly.
func TestWatchdogKillsStuckJob(t *testing.T) {
	gate := make(chan struct{})
	r := NewRegistryWithOptions(Options{
		PoolSize:        1,
		CheckpointEvery: -1,
		WatchdogQuiet:   50 * time.Millisecond,
		ConfigureJob: func(cfg *autopipe.JobConfig) {
			cfg.Predictor = blockingPredictor{gate: gate}
		},
	})
	spec := hugeSpec()
	spec.CheckEvery = 3
	spec.Trace = []TraceEvent{{At: 0.1, Kind: "bandwidth", Gbps: 1}}
	info, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "watchdog kill", func() bool {
		got, err := r.Get(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		return got.Status.State == autopipe.JobFailed
	})
	got, err := r.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got.Status.Error, "watchdog") {
		t.Fatalf("killed job error = %q, want a watchdog reason", got.Status.Error)
	}
	if c := r.Counters(); c.WatchdogKills != 1 {
		t.Fatalf("WatchdogKills = %d, want 1", c.WatchdogKills)
	}
	// Unwedge the predictor; the cancelled run unwinds and the registry
	// must drain without force-cancellation.
	close(gate)
	if err := r.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The watchdog verdict survives the job's own cancelled state.
	if got, _ := r.Get(info.ID); got.Status.State != autopipe.JobFailed {
		t.Fatalf("post-drain state = %s, want failed", got.Status.State)
	}
}

// TestJobTimeoutDeadline: the per-job deadline propagates into Run's
// context and the job is presented as failed with the reason.
func TestJobTimeoutDeadline(t *testing.T) {
	r := NewRegistryWithOptions(Options{PoolSize: 1, JobTimeout: 30 * time.Millisecond})
	defer drain(t, r)
	info, err := r.Submit(hugeSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "deadline kill", func() bool {
		got, err := r.Get(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		return got.Status.State == autopipe.JobFailed
	})
	got, _ := r.Get(info.ID)
	if !strings.Contains(got.Status.Error, "deadline") {
		t.Fatalf("deadline-killed job error = %q", got.Status.Error)
	}
	if c := r.Counters(); c.DeadlineKills != 1 {
		t.Fatalf("DeadlineKills = %d, want 1", c.DeadlineKills)
	}
}

// TestHTTPOverloadShedding: beyond the admission queue the API answers
// 429 with Retry-After, and the shed/queue telemetry shows up in
// /metrics and /healthz.
func TestHTTPOverloadShedding(t *testing.T) {
	reg := NewRegistryWithOptions(Options{PoolSize: 1, MaxQueue: 1})
	srv := New(reg)
	ts := newHTTPServer(t, srv, reg)

	var first JobInfo
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/jobs", hugeSpec(), &first); code != 201 {
		t.Fatalf("first submit = %d: %s", code, raw)
	}
	waitState(t, reg, first.ID, autopipe.JobRunning)
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/jobs", hugeSpec(), nil); code != 201 {
		t.Fatalf("second submit = %d: %s", code, raw)
	}

	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(`{"model":"AlexNet","batches":5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue submit = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}

	_, raw := doJSON(t, "GET", ts.URL+"/metrics", nil, nil)
	metrics := string(raw)
	for _, want := range []string{
		"autopiped_jobs_shed_total 1",
		"autopiped_admission_queue_limit 1",
		"autopiped_registry_depth 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	var health struct {
		QueueDepth int   `json:"queue_depth"`
		QueueLimit int   `json:"queue_limit"`
		JobsShed   int64 `json:"jobs_shed"`
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/healthz", nil, &health); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if health.QueueDepth != 1 || health.QueueLimit != 1 || health.JobsShed != 1 {
		t.Fatalf("healthz = %+v", health)
	}
}

func newHTTPServer(t *testing.T, srv *Server, reg *Registry) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		reg.Shutdown(ctx)
	})
	return ts
}

// TestChaosSpecValidation exercises the chaos surface of the job spec.
// invalidChaos are chaos schedules admission must refuse:
// TestChaosSpecValidation and TestInvalidSpecParity share them.
func invalidChaos() map[string][]ChaosEventSpec {
	return map[string][]ChaosEventSpec{
		"unknown kind":       {{Kind: "meteor"}},
		"negative time":      {{Kind: "kill", At: -1}},
		"kill_on_flow blank": {{Kind: "kill_on_flow"}},
		"stall blank":        {{Kind: "stall"}},
		"drop blank":         {{Kind: "drop"}},
		"flap no gbps":       {{Kind: "flap_nic", At: 1}},
	}
}

func TestChaosSpecValidation(t *testing.T) {
	r := NewRegistry(1)
	defer drain(t, r)
	for name, events := range invalidChaos() {
		spec := smallSpec()
		spec.Chaos = events
		if _, err := r.Submit(spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A valid chaos schedule runs to completion.
	spec := smallSpec()
	spec.Chaos = []ChaosEventSpec{{Kind: "flap_nic", At: 0.5, Gbps: 1, HoldSec: 0.2}}
	info, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, info.ID, autopipe.JobDone)
}

// TestLiveRecordCountMatchesExport: the running live-record count that
// drives steady-state compaction equals the number of records
// exportRecords emits, after a randomized sequence of submissions,
// cancellations, checkpoints, completions and fence-outs. Parked jobs
// hold a checkpoint while running, so every phase of a job's life is
// visible at once; between steps the count must converge to the export,
// and after Shutdown it must match exactly.
func TestLiveRecordCountMatchesExport(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Jobs are built by the worker that pops them, so each parked
		// job's gate is keyed by its own CheckEvery, which ConfigureJob
		// can see.
		var (
			mu        sync.Mutex
			parkGates = map[int]chan struct{}{}
		)
		r := NewRegistryWithOptions(Options{
			PoolSize: 2, CheckpointEvery: 2, WatchdogQuiet: -1,
			ConfigureJob: func(cfg *autopipe.JobConfig) {
				mu.Lock()
				gate := parkGates[cfg.CheckEvery]
				mu.Unlock()
				if gate == nil {
					return
				}
				journaled := cfg.OnCheckpoint
				var once sync.Once
				cfg.OnCheckpoint = func(cp autopipe.Checkpoint) {
					journaled(cp)
					once.Do(func() { <-gate })
				}
			},
		})
		gates := map[string]chan struct{}{}
		var ids []string
		release := func(id string) {
			if g, ok := gates[id]; ok {
				close(g)
				delete(gates, id)
			}
		}
		for step := 0; step < 40; step++ {
			switch op := rng.Intn(6); {
			case op <= 1 || len(ids) == 0: // submit, half of them parked
				var gate chan struct{}
				spec := smallSpec()
				if rng.Intn(2) == 0 {
					gate = make(chan struct{})
					spec.Batches = 40
					spec.CheckEvery = 100 + step
					mu.Lock()
					parkGates[spec.CheckEvery] = gate
					mu.Unlock()
				}
				info, err := r.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, info.ID)
				if gate != nil {
					gates[info.ID] = gate
				}
			case op == 2: // cancel
				id := ids[rng.Intn(len(ids))]
				if _, err := r.CancelView(id); err != nil && !errors.Is(err, ErrNotFound) {
					t.Fatal(err)
				}
				release(id)
			case op == 3: // let a parked job finish
				id := ids[rng.Intn(len(ids))]
				release(id)
			case op == 4: // fence out to a higher epoch
				id := ids[rng.Intn(len(ids))]
				if f, ok := r.Fence(id); ok {
					r.FenceOut(id, f+1)
				}
				release(id)
			default: // let the pool make progress
				time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
			}
			waitFor(t, "live count to converge on the export", func() bool {
				return r.live.Load() == int64(len(r.ExportRecords()))
			})
		}
		for id := range gates {
			release(id)
		}
		if err := r.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if live, export := r.live.Load(), len(r.ExportRecords()); live != int64(export) {
			t.Fatalf("seed %d: live count %d, exportRecords emits %d", seed, live, export)
		}
	}
}
