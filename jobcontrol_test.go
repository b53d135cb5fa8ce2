package autopipe

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"autopipe/internal/meta"
	"autopipe/internal/partition"
	"autopipe/internal/profile"
	"autopipe/internal/sim"
)

func testJobConfig() JobConfig {
	return JobConfig{
		Model:   UniformModel(8, 1e9, 1000),
		Cluster: Testbed(Gbps(25)),
	}
}

func TestNewJobRunMatchesRunJob(t *testing.T) {
	// The managed-job path and the legacy blocking path are the same
	// deterministic simulation.
	a, err := RunJob(context.Background(), testJobConfig(), 30)
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJob(testJobConfig(), 30)
	if err != nil {
		t.Fatal(err)
	}
	b, err := j.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput != b.Throughput || a.WallTime != b.WallTime || a.Batches != b.Batches {
		t.Fatalf("paths diverge: RunJob %+v vs Job.Run %+v", a.Result, b.Result)
	}
}

func TestJobStatusLifecycle(t *testing.T) {
	j, err := NewJob(testJobConfig(), 25)
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.State != JobQueued || st.Batches != 25 || len(st.Plan.Stages) == 0 {
		t.Fatalf("pre-run status = %+v", st)
	}
	if _, err := j.Result(); err == nil {
		t.Fatal("Result before Run should error")
	}
	res, err := j.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := j.Status()
	if st.State != JobDone || st.Iteration != 25 {
		t.Fatalf("post-run status = %+v", st)
	}
	if st.Throughput != res.Throughput {
		t.Fatalf("status throughput %g != result %g", st.Throughput, res.Throughput)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("Done not closed after Run")
	}
	got, err := j.Result()
	if err != nil || got.Batches != 25 {
		t.Fatalf("Result() = %+v, %v", got.Result, err)
	}
	if _, err := j.Run(context.Background()); err == nil {
		t.Fatal("second Run should error")
	}
}

func TestJobCancelBeforeRun(t *testing.T) {
	j, err := NewJob(testJobConfig(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	j.Cancel()
	if _, err := j.Run(context.Background()); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Run after Cancel = %v, want ErrCancelled", err)
	}
	if st := j.Status(); st.State != JobCancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
}

func TestJobCancelMidRun(t *testing.T) {
	// A job too large to finish quickly; cancel it from another
	// goroutine once progress is visible.
	j, err := NewJob(testJobConfig(), 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := j.Run(context.Background())
		errCh <- err
	}()
	deadline := time.Now().Add(30 * time.Second)
	for j.Status().Iteration == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no progress observed")
		}
		time.Sleep(time.Millisecond)
	}
	j.Cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("Run = %v, want ErrCancelled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancel not honoured")
	}
	st := j.Status()
	if st.State != JobCancelled || st.Iteration == 0 {
		t.Fatalf("status after cancel = %+v", st)
	}
}

// runUntilProgress starts a job too large to finish quickly under ctx
// and returns once it has completed an iteration, with the channel Run
// reports on.
func runUntilProgress(t *testing.T, ctx context.Context) (*Job, chan error) {
	t.Helper()
	j, err := NewJob(testJobConfig(), 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := j.Run(ctx)
		errCh <- err
	}()
	deadline := time.Now().Add(30 * time.Second)
	for j.Status().Iteration == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no progress observed")
		}
		time.Sleep(time.Millisecond)
	}
	return j, errCh
}

// TestJobContextCancelMidRun: cancelling the run's context stops the
// event loop at the next event boundary with the context's error, as
// Cancel does with ErrCancelled.
func TestJobContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j, errCh := runUntilProgress(t, ctx)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("context cancellation not honoured")
	}
	if st := j.Status(); st.State != JobCancelled || st.Iteration == 0 {
		t.Fatalf("status after context cancel = %+v", st)
	}
}

// TestJobPauseResumeMidRun: Pause freezes a running job at an event
// boundary, Resume lets it go on, and Cancel releases it.
func TestJobPauseResumeMidRun(t *testing.T) {
	j, errCh := runUntilProgress(t, context.Background())
	j.Pause()
	if !j.Paused() {
		t.Fatal("Paused() = false after Pause")
	}
	// Let the loop reach its next event boundary, then watch it hold.
	time.Sleep(50 * time.Millisecond)
	frozen := j.Status().VirtualTime
	time.Sleep(50 * time.Millisecond)
	if vt := j.Status().VirtualTime; vt != frozen {
		t.Fatalf("virtual time moved while paused: %v → %v", frozen, vt)
	}
	j.Resume()
	deadline := time.Now().Add(30 * time.Second)
	for j.Status().VirtualTime == frozen {
		if time.Now().After(deadline) {
			t.Fatal("no progress after Resume")
		}
		time.Sleep(time.Millisecond)
	}
	j.Pause()
	j.Cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("Run = %v, want ErrCancelled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Cancel did not release a paused job")
	}
}

func TestJobStatusJSON(t *testing.T) {
	j, err := NewJob(testJobConfig(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(j.Status())
	if err != nil {
		t.Fatal(err)
	}
	var back JobStatus
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.State != JobDone || back.Iteration != 20 || !back.Plan.Equal(j.Status().Plan) {
		t.Fatalf("status round trip changed: %+v", back)
	}
}

// slowPredictor makes every candidate evaluation take real wall time,
// so a reconfiguration decision's search dominates the test's clock.
type slowPredictor struct{ delay time.Duration }

func (s slowPredictor) PredictSpeed(p *profile.Profile, plan partition.Plan, miniBatch int, h *meta.History) float64 {
	time.Sleep(s.delay)
	return meta.AnalyticPredictor{}.PredictSpeed(p, plan, miniBatch, h)
}

func TestCancelInterruptsCandidateSearch(t *testing.T) {
	// Regression test for cancellation latency: with a deliberately slow
	// predictor and a large neighbourhood, one full decision takes
	// several real seconds. Cancel must interrupt the search between
	// candidate evaluations — bounded by one candidate's scoring time —
	// rather than wait for the whole decision (or the whole job).
	const delay = 150 * time.Millisecond
	j, err := NewJob(JobConfig{
		Model:      UniformModel(24, 1e9, 1000),
		Cluster:    Testbed(Gbps(25)),
		CheckEvery: 1,
		Predictor:  slowPredictor{delay: delay},
	}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := j.Run(context.Background())
		errCh <- err
	}()
	// By now the first decision's scoring loop is in progress: the
	// simulated batches take microseconds of real time, the candidate
	// scores 150ms each.
	time.Sleep(2 * delay)
	start := time.Now()
	j.Cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("Run = %v, want ErrCancelled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancel not honoured during candidate search")
	}
	// One in-flight candidate evaluation may finish; a whole decision
	// (tens of candidates) must not.
	if waited := time.Since(start); waited > 5*delay {
		t.Fatalf("cancellation took %v, want bounded by one candidate evaluation (%v)", waited, delay)
	}
}

func TestFinishedJobReleasesSimulator(t *testing.T) {
	// Run publishes the same outcome whichever way the job ends, and
	// then drops the simulation engine and controller: a finished job
	// keeps only its status, result and last checkpoint.
	cases := []struct {
		name    string
		batches int
		// dynamics and cancelAt shape the ending: a NIC outage stalls
		// the run (failed), a Cancel from the checkpoint hook stops it.
		dynamics Trace
		cancelAt int
		want     JobState
	}{
		{name: "done", batches: 30, want: JobDone},
		{name: "cancelled", batches: 1000, cancelAt: 2, want: JobCancelled},
		{name: "failed", batches: 30, dynamics: BandwidthSteps([]float64{0.5}, []float64{0}), want: JobFailed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testJobConfig()
			cfg.Dynamics = tc.dynamics
			cfg.CheckpointEvery = 5
			var (
				j   *Job
				cps []Checkpoint
			)
			cfg.OnCheckpoint = func(cp Checkpoint) {
				cps = append(cps, cp)
				if len(cps) == tc.cancelAt {
					j.Cancel()
				}
			}
			j, err := NewJob(cfg, tc.batches)
			if err != nil {
				t.Fatal(err)
			}
			res, runErr := j.Run(context.Background())
			st := j.Status()
			if st.State != tc.want {
				t.Fatalf("state = %s (err %v), want %s", st.State, runErr, tc.want)
			}
			if j.eng != nil || j.ctl != nil {
				t.Fatal("finished job still holds its engine or controller")
			}
			gotRes, gotErr := j.Result()
			if !reflect.DeepEqual(gotRes, res) || gotErr != runErr {
				t.Fatalf("Result() = %+v, %v; Run returned %+v, %v", gotRes.Result, gotErr, res.Result, runErr)
			}
			cp, ok := j.Checkpoint()
			if ok != (len(cps) > 0) || ok && !reflect.DeepEqual(cp, cps[len(cps)-1]) {
				t.Fatalf("Checkpoint() = %+v, %v; last taken of %d", cp, ok, len(cps))
			}
			switch tc.want {
			case JobDone:
				if st.Iteration != tc.batches || st.Throughput != res.Throughput ||
					!reflect.DeepEqual(st.Plan, res.FinalPlan) || !reflect.DeepEqual(st.Controller, res.Controller) {
					t.Fatalf("status %+v disagrees with result %+v", st, res.Result)
				}
			case JobCancelled:
				if !errors.Is(runErr, ErrCancelled) || st.Iteration < 5*tc.cancelAt || st.Iteration >= tc.batches {
					t.Fatalf("cancelled at iteration %d, err %v", st.Iteration, runErr)
				}
			case JobFailed:
				if runErr == nil || st.Error != runErr.Error() {
					t.Fatalf("status error %q, Run error %v", st.Error, runErr)
				}
			}
			// The published snapshot outlives the simulator.
			runtime.GC()
			if again := j.Status(); !reflect.DeepEqual(again, st) {
				t.Fatalf("status changed after release: %+v, was %+v", again, st)
			}
		})
	}
}

// TestStatusSnapshotCopiesOnlyChanges: the status snapshot re-copies the
// plan only after a switch and the decision window only when a decision
// was logged, yet every published status matches the controller at its
// batch, and no published value is mutated afterwards.
func TestStatusSnapshotCopiesOnlyChanges(t *testing.T) {
	cl := Testbed(Gbps(25))
	j, err := NewJob(JobConfig{
		Model: ResNet50(), Cluster: cl, Workers: Workers(cl.NumGPUs()),
		Scheme: RingAllReduce, Dynamics: ChurnTrace(1, 60),
	}, 50)
	if err != nil {
		t.Fatal(err)
	}
	var seen, copies []JobStatus
	deepCopy := func(st JobStatus) JobStatus {
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var out JobStatus
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	// Registered after the job's own snapshot hook, so it sees this
	// batch's published status.
	j.ctl.Engine().OnBatchDone(func(int, sim.Time) {
		st := j.Status()
		if !st.Plan.Equal(j.ctl.Plan()) {
			t.Errorf("iteration %d: status plan %v, controller plan %v", st.Iteration, st.Plan, j.ctl.Plan())
		}
		if want := j.ctl.RecentDecisions(statusDecisionWindow); !reflect.DeepEqual(st.Decisions, want) {
			t.Errorf("iteration %d: status holds %d decisions, controller %d", st.Iteration, len(st.Decisions), len(want))
		}
		seen, copies = append(seen, st), append(copies, deepCopy(st))
	})
	res, err := j.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Controller.SwitchesApplied == 0 || len(res.Decisions) == 0 {
		t.Fatalf("fixture made %d switches and %d decisions; the test needs both", res.Controller.SwitchesApplied, len(res.Decisions))
	}
	for i := range seen {
		if got := deepCopy(seen[i]); !reflect.DeepEqual(got, copies[i]) {
			t.Fatalf("status published at iteration %d was mutated afterwards", seen[i].Iteration)
		}
	}
}
