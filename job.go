package autopipe

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	ap "autopipe/internal/autopipe"
	"autopipe/internal/chaos"
	"autopipe/internal/meta"
	"autopipe/internal/netsim"
	"autopipe/internal/partition"
	"autopipe/internal/pipeline"
	"autopipe/internal/profile"
	"autopipe/internal/sim"
	"autopipe/internal/trace"
)

// RunConfig describes one fixed-configuration training run.
type RunConfig struct {
	Model   *Model
	Cluster *Cluster
	// Plan defaults to PipeDream's DP plan over all GPUs.
	Plan Plan
	// Scheme selects parameter synchronisation; the zero value is
	// ParameterServer.
	Scheme SyncScheme
	// Framework defaults to PyTorch.
	Framework Framework
	// Batches to train (required).
	Batches int
	// SyncEvery is the PipeDream-2BW gradient-coalescing period.
	SyncEvery int
	// PerHopLatencySec adds fixed per-link-hop propagation delay to
	// every network transfer (0 = pure fluid model).
	PerHopLatencySec float64
	// Dynamics, if non-nil, mutates the cluster during the run.
	Dynamics Trace
}

// Measure runs a fixed configuration and returns its metrics.
func Measure(cfg RunConfig) (Result, error) {
	if cfg.Model == nil || cfg.Cluster == nil {
		return Result{}, fmt.Errorf("autopipe: Measure needs Model and Cluster")
	}
	if cfg.Batches <= 0 {
		return Result{}, fmt.Errorf("autopipe: Measure needs a positive batch count")
	}
	if len(cfg.Plan.Stages) == 0 {
		cfg.Plan = PlanPipeDream(cfg.Model, cfg.Cluster, Workers(cfg.Cluster.NumGPUs()))
	}
	eng := sim.NewEngine()
	net := netsim.New(eng, cfg.Cluster)
	net.PerHopLatencySec = cfg.PerHopLatencySec
	e, err := pipeline.NewAsync(eng, net, pipeline.Config{
		Model: cfg.Model, Cluster: cfg.Cluster, Plan: cfg.Plan,
		Scheme: cfg.Scheme, Framework: cfg.Framework, SyncEvery: cfg.SyncEvery,
	})
	if err != nil {
		return Result{}, err
	}
	cfg.Dynamics.Schedule(eng, cfg.Cluster, net, nil)
	e.Start(cfg.Batches)
	eng.RunAll()
	if e.Completed() != cfg.Batches {
		return Result{}, fmt.Errorf("autopipe: run stalled at %d/%d batches", e.Completed(), cfg.Batches)
	}
	res := Result{
		Batches:     e.Completed(),
		Samples:     e.Completed() * cfg.Model.MiniBatch,
		Throughput:  e.Throughput(),
		Utilization: e.Utilization(),
		StashPeak:   e.StashPeak(),
	}
	if cs := e.Completions(); len(cs) > 0 {
		res.StartupTime = float64(cs[0])
		// Dynamics events may fire after the last batch; the run's cost
		// is the job's own final completion, not the drained clock.
		res.WallTime = float64(cs[len(cs)-1])
	}
	return res, nil
}

// SyncSchedule selects a synchronous pipeline schedule (GPipe, DAPPLE,
// Chimera).
type SyncSchedule = pipeline.SyncSchedule

// Synchronous pipeline schedules.
const (
	GPipe   = pipeline.GPipe
	DAPPLE  = pipeline.DAPPLE
	Chimera = pipeline.Chimera
)

// MeasureSyncSchedule runs a synchronous micro-batched schedule (GPipe /
// DAPPLE / Chimera) instead of asynchronous 1F1B. microBatches defaults
// to 4.
func MeasureSyncSchedule(cfg RunConfig, schedule SyncSchedule, microBatches int) (Result, error) {
	if cfg.Model == nil || cfg.Cluster == nil {
		return Result{}, fmt.Errorf("autopipe: MeasureSyncSchedule needs Model and Cluster")
	}
	if cfg.Batches <= 0 {
		return Result{}, fmt.Errorf("autopipe: MeasureSyncSchedule needs a positive batch count")
	}
	if len(cfg.Plan.Stages) == 0 {
		cfg.Plan = PlanEvenSplit(cfg.Model, Workers(cfg.Cluster.NumGPUs()))
	}
	eng := sim.NewEngine()
	net := netsim.New(eng, cfg.Cluster)
	e, err := pipeline.NewSync(eng, net, pipeline.SyncConfig{
		Config: pipeline.Config{
			Model: cfg.Model, Cluster: cfg.Cluster, Plan: cfg.Plan,
			Scheme: cfg.Scheme, Framework: cfg.Framework,
		},
		Schedule: schedule, MicroBatches: microBatches,
	})
	if err != nil {
		return Result{}, err
	}
	cfg.Dynamics.Schedule(eng, cfg.Cluster, net, nil)
	e.Start(cfg.Batches)
	eng.RunAll()
	if e.Completed() != cfg.Batches {
		return Result{}, fmt.Errorf("autopipe: sync run stalled at %d/%d", e.Completed(), cfg.Batches)
	}
	res := Result{
		Batches:     e.Completed(),
		Samples:     e.Completed() * cfg.Model.MiniBatch,
		Throughput:  e.Throughput(),
		Utilization: e.Utilization(),
	}
	if cs := e.Completions(); len(cs) > 0 {
		res.StartupTime = float64(cs[0])
		res.WallTime = float64(cs[len(cs)-1])
	}
	return res, nil
}

// JobConfig describes an AutoPipe-managed training job.
type JobConfig struct {
	Model   *Model
	Cluster *Cluster
	// Workers defaults to all GPUs.
	Workers []int
	Scheme  SyncScheme
	// Framework defaults to PyTorch.
	Framework Framework
	// SyncEvery is the PipeDream-2BW gradient-coalescing period.
	SyncEvery int
	// Dynamics, if non-nil, mutates the cluster during the run.
	Dynamics Trace
	// Chaos, if non-nil, schedules deterministic fault injection
	// (worker kills, migration-flow faults, NIC flaps) on the run.
	Chaos *ChaosSpec
	// CheckEvery is the reconfiguration decision period in iterations
	// (default 5).
	CheckEvery int
	// Predictor overrides the candidate scorer (default: scheme-aware
	// analytic predictor, the meta-network's drop-in stand-in).
	Predictor Predictor
	// Arbiter, when non-nil, gates switches with the RL policy instead
	// of the threshold rule.
	Arbiter *Arbiter
	// DisableReconfig freezes the initial plan (PipeDream ablation).
	DisableReconfig bool
	// InitialPlan overrides the PipeDream DP initialisation (ablations
	// and tests that need the controller to start off-optimum). Ignored
	// when the job is built from a checkpoint.
	InitialPlan *Plan
	// Procs bounds parallel candidate scoring during reconfiguration
	// decisions (<=0 selects GOMAXPROCS). It is an upper bound: a round
	// fans out only as far as its measured scoring cost pays for, so the
	// analytic predictor's rounds score on the calling goroutine. The
	// chosen plans are bit-identical at any setting; only wall-clock
	// changes.
	Procs int
	// CheckpointEvery takes a controller checkpoint every N completed
	// iterations (0 disables). Checkpoints are skipped while a switch is
	// in flight and at the final iteration, so a restore always has work
	// left to do.
	CheckpointEvery int
	// OnCheckpoint receives each checkpoint. It is invoked on the
	// simulation goroutine: keep it fast or the run stalls (the
	// autopiped daemon uses it to fsync the checkpoint to its journal).
	OnCheckpoint func(Checkpoint)
	// DaemonKill is the hook a chaos KillDaemon event invokes — the
	// crash injection point for control-plane durability testing.
	DaemonKill func()
	// PartitionHook is the hook a chaos Partition event invokes — the
	// network-partition injection point for fleet partition testing
	// (typically a closure applying netfault rules).
	PartitionHook func()
	// OracleBandwidth makes the profiler read ground-truth available
	// bandwidth instead of estimating it from the job's own transfer
	// completions (the default; see internal/bwe).
	OracleBandwidth bool
}

// Checkpoint is a compact resumable snapshot of a managed job's
// controller; see NewJobFromCheckpoint.
type Checkpoint = ap.Checkpoint

// JobResult extends Result with controller telemetry. Like Result it
// serialises through encoding/json; the wire form is shared by
// `autopipe-sim -json` and the autopiped daemon's API.
type JobResult struct {
	Result
	Controller ControllerStats `json:"controller"`
	FinalPlan  Plan            `json:"final_plan"`
	// SpeedPerIteration is the smoothed per-iteration samples/sec.
	SpeedPerIteration []float64 `json:"speed_per_iteration,omitempty"`
	// Decisions holds the recorded reconfiguration decisions (most
	// recent first-capped window, see internal/autopipe maxLogEntries);
	// DecisionRecord.String renders one as a line.
	Decisions []DecisionRecord `json:"decisions,omitempty"`
}

// RunJob trains a managed job for the given number of mini-batches,
// blocking until it completes or ctx is cancelled. It is NewJob + Run
// for callers that need no live progress.
func RunJob(ctx context.Context, cfg JobConfig, batches int) (JobResult, error) {
	j, err := NewJob(cfg, batches)
	if err != nil {
		return JobResult{}, err
	}
	return j.Run(ctx)
}

// JobState is the lifecycle phase of a managed Job.
type JobState string

// Job lifecycle states.
const (
	// JobQueued: built but Run not yet called.
	JobQueued JobState = "queued"
	// JobRunning: Run is executing the simulation.
	JobRunning JobState = "running"
	// JobDone: all batches completed.
	JobDone JobState = "done"
	// JobFailed: the run stalled or errored.
	JobFailed JobState = "failed"
	// JobCancelled: Cancel stopped the run.
	JobCancelled JobState = "cancelled"
)

// ErrCancelled is returned by Run when Cancel stops the job.
var ErrCancelled = errors.New("autopipe: job cancelled")

// JobStatus is a point-in-time snapshot of a managed job, safe to read
// from any goroutine while the job runs.
type JobStatus struct {
	State JobState `json:"state"`
	// Iteration is the number of completed mini-batches; Batches the
	// target.
	Iteration int `json:"iteration"`
	Batches   int `json:"batches"`
	// VirtualTime is the simulation clock (seconds).
	VirtualTime float64 `json:"virtual_time_sec"`
	// Throughput is steady-state samples/sec so far.
	Throughput float64 `json:"throughput_samples_per_sec"`
	// Plan is the partition currently running.
	Plan Plan `json:"plan"`
	// Controller aggregates controller activity so far.
	Controller ControllerStats `json:"controller"`
	// Decisions holds the most recent reconfiguration decisions.
	Decisions []DecisionRecord `json:"recent_decisions,omitempty"`
	// Error is set for failed jobs.
	Error string `json:"error,omitempty"`
}

// statusDecisionWindow bounds the decision tail carried by a snapshot.
const statusDecisionWindow = 8

// Job is a managed training job with cancellation and live progress —
// the control-plane handle the autopiped daemon hosts many of. Build
// with NewJob, drive with Run (once, from any one goroutine); Cancel
// and Status are safe from any goroutine at any time.
type Job struct {
	cfg     JobConfig
	batches int // total budget, including any checkpointed base
	base    int // iterations completed before this process (restore)
	// eng and ctl are the job's simulator; Run drops them once the
	// outcome is published.
	eng *sim.Engine
	ctl *ap.Controller

	cancel     atomic.Bool
	fenceAbort atomic.Bool
	// attention asks the run loop to take its slow checks (cancel,
	// context, pause gate) before the next event. Cancel, Pause and the
	// run context's cancellation set it after their own state, and the
	// loop clears it before reading that state, so no request is lost.
	attention atomic.Bool
	done      chan struct{}

	// pauseMu guards the pause gate; pauseCh is non-nil while paused
	// and closed by Resume.
	pauseMu sync.Mutex
	pauseCh chan struct{}

	mu        sync.Mutex
	started   bool
	runCancel context.CancelFunc
	status    JobStatus
	// finished, result and err are set together with the terminal
	// status.State, in one critical section, so a reader never sees a
	// terminal state without its outcome.
	finished bool
	result   JobResult
	err      error
	lastCP   *Checkpoint
	// planGen and decisionsSeen are the controller generations status.Plan
	// and status.Decisions were copied at (see snapshotLocked).
	planGen       uint64
	decisionsSeen uint64
}

// NewJob builds a managed job: the simulation engine, network and
// AutoPipe controller are constructed (initial plan included) but no
// virtual time elapses until Run.
func NewJob(cfg JobConfig, batches int) (*Job, error) {
	return newJob(cfg, batches, nil)
}

// NewJobFromCheckpoint builds a managed job that resumes from a
// controller checkpoint (see JobConfig.CheckpointEvery / OnCheckpoint):
// the checkpointed plan becomes the initial partition, the controller's
// counters and RNG cursor continue where they left off, and the run
// covers the remaining batches - checkpoint.Iterations budget. batches
// is the job's TOTAL budget, the same number the original job was built
// with. Two jobs resumed from the same checkpoint and config make
// bit-identical decisions.
//
// The simulation engine restarts fresh: virtual time, in-flight batches
// and any Dynamics/Chaos schedules begin again from zero, which is the
// durability contract of a control-plane restore (weight stashing one
// layer up), not a bitwise process snapshot.
func NewJobFromCheckpoint(cfg JobConfig, batches int, cp Checkpoint) (*Job, error) {
	if cp.Iterations >= batches {
		return nil, fmt.Errorf("autopipe: checkpoint at iteration %d has no work left in a %d-batch budget", cp.Iterations, batches)
	}
	return newJob(cfg, batches, &cp)
}

func newJob(cfg JobConfig, batches int, restore *Checkpoint) (*Job, error) {
	if cfg.Model == nil || cfg.Cluster == nil {
		return nil, fmt.Errorf("autopipe: NewJob needs Model and Cluster")
	}
	if batches <= 0 {
		return nil, fmt.Errorf("autopipe: NewJob needs a positive batch count")
	}
	eng := sim.NewEngine()
	net := netsim.New(eng, cfg.Cluster)
	if cfg.Chaos != nil {
		inj := chaos.Install(eng, cfg.Cluster, net, *cfg.Chaos)
		if cfg.DaemonKill != nil {
			inj.SetDaemonKill(cfg.DaemonKill)
		}
		if cfg.PartitionHook != nil {
			inj.SetPartition(cfg.PartitionHook)
		}
	}
	pred := cfg.Predictor
	if pred == nil {
		pred = meta.AnalyticPredictor{Scheme: cfg.Scheme}
	}
	c, err := ap.New(eng, net, ap.Config{
		Model: cfg.Model, Cluster: cfg.Cluster, Workers: cfg.Workers,
		Scheme: cfg.Scheme, Framework: cfg.Framework, SyncEvery: cfg.SyncEvery,
		Predictor: pred, Arbiter: cfg.Arbiter,
		CheckEvery:      cfg.CheckEvery,
		DisableReconfig: cfg.DisableReconfig,
		InitialPlan:     cfg.InitialPlan,
		Procs:           cfg.Procs,
		Restore:         restore,
		OracleBandwidth: cfg.OracleBandwidth,
	})
	if err != nil {
		return nil, err
	}
	cfg.Dynamics.Schedule(eng, cfg.Cluster, net, nil)
	j := &Job{
		cfg: cfg, batches: batches, eng: eng, ctl: c,
		done: make(chan struct{}),
		status: JobStatus{
			State: JobQueued, Batches: batches, Plan: c.Plan(),
		},
	}
	if restore != nil {
		j.base = restore.Iterations
		j.status.Iteration = j.base
	}
	// The controller's own OnBatchDone callback is registered first, so
	// the snapshot sees this iteration's stats and plan.
	c.Engine().OnBatchDone(func(batch int, at sim.Time) { j.snapshot(JobRunning) })
	if cfg.CheckpointEvery > 0 {
		c.Engine().OnBatchDone(func(batch int, at sim.Time) { j.maybeCheckpoint() })
	}
	return j, nil
}

// maybeCheckpoint snapshots the controller on the checkpoint cadence.
// Runs on the simulation goroutine. Mid-switch iterations are skipped
// (the incumbent plan is only authoritative between switches), as is
// the final iteration — a checkpoint always leaves work to resume.
func (j *Job) maybeCheckpoint() {
	it := j.base + j.ctl.Engine().Completed()
	if it%j.cfg.CheckpointEvery != 0 || it >= j.batches || j.ctl.Engine().Switching() {
		return
	}
	cp := j.ctl.Checkpoint()
	j.mu.Lock()
	j.lastCP = &cp
	j.mu.Unlock()
	if j.cfg.OnCheckpoint != nil {
		j.cfg.OnCheckpoint(cp)
	}
}

// Checkpoint returns the most recent checkpoint taken on the
// CheckpointEvery cadence, if any. Safe from any goroutine.
func (j *Job) Checkpoint() (Checkpoint, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.lastCP == nil {
		return Checkpoint{}, false
	}
	return *j.lastCP, true
}

// snapshot refreshes the published status. Called from the simulation
// goroutine only; readers go through Status.
func (j *Job) snapshot(state JobState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.snapshotLocked(state)
}

// snapshotLocked is snapshot with j.mu already held.
func (j *Job) snapshotLocked(state JobState) {
	e := j.ctl.Engine()
	j.status.State = state
	j.status.Iteration = j.base + e.Completed()
	j.status.VirtualTime = float64(j.eng.Now())
	j.status.Throughput = e.Throughput()
	j.status.Controller = j.ctl.Stats()
	// The plan and the decision window are copied only when they moved:
	// a published copy is never mutated, so readers may keep it.
	if g := j.ctl.PlanGen(); g != j.planGen {
		j.status.Plan, j.planGen = j.ctl.Plan(), g
	}
	if n := j.ctl.DecisionsLogged(); n != j.decisionsSeen {
		j.status.Decisions, j.decisionsSeen = j.ctl.RecentDecisions(statusDecisionWindow), n
	}
}

// Status returns the latest progress snapshot. Safe from any goroutine.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Cancel asks a running (or not-yet-run) job to stop. Idempotent and
// safe from any goroutine; Run returns ErrCancelled shortly after: the
// signal is checked between simulation events AND cancels the run's
// context, which aborts any candidate search in flight inside a
// reconfiguration decision.
func (j *Job) Cancel() {
	j.cancel.Store(true)
	j.attention.Store(true)
	j.mu.Lock()
	cancel := j.runCancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Abort cancels the job like Cancel and additionally rolls back any
// in-flight plan switch once the simulation loop stops, leaving the
// cancelled controller on its last committed plan. Used when the job's
// ownership has been fenced away to another node: the local copy must
// abandon a half-applied reconfiguration rather than publish it.
func (j *Job) Abort() {
	j.fenceAbort.Store(true)
	j.Cancel()
}

// Pause blocks the simulation loop at the next event boundary until
// Resume is called. Virtual time is frozen while paused, so a paused
// job resumes bit-identically. Idempotent; safe from any goroutine.
// Cancellation releases a paused job.
func (j *Job) Pause() {
	j.pauseMu.Lock()
	if j.pauseCh == nil {
		j.pauseCh = make(chan struct{})
	}
	j.pauseMu.Unlock()
	j.attention.Store(true)
}

// Resume releases a paused job. Idempotent; safe from any goroutine.
func (j *Job) Resume() {
	j.pauseMu.Lock()
	defer j.pauseMu.Unlock()
	if j.pauseCh != nil {
		close(j.pauseCh)
		j.pauseCh = nil
	}
}

// Paused reports whether the job is currently gated by Pause.
func (j *Job) Paused() bool {
	j.pauseMu.Lock()
	defer j.pauseMu.Unlock()
	return j.pauseCh != nil
}

// waitIfPaused blocks while the pause gate is closed. Returns false if
// the job was stopped while waiting.
func (j *Job) waitIfPaused(ctx context.Context) bool {
	for {
		j.pauseMu.Lock()
		ch := j.pauseCh
		j.pauseMu.Unlock()
		if ch == nil {
			return true
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return false
		}
	}
}

// Done is closed when Run finishes for any reason.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the final result once the job has reached a terminal
// state. Before that it reports an error. A Status showing a terminal
// state guarantees that a later Result call returns the outcome.
func (j *Job) Result() (JobResult, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.finished {
		return JobResult{}, fmt.Errorf("autopipe: job still running")
	}
	return j.result, j.err
}

// Run executes the job to completion, cancellation or stall, blocking
// the calling goroutine. It may be called once. A nil ctx is treated as
// context.Background; cancelling ctx stops the job like Cancel does.
func (j *Job) Run(ctx context.Context) (JobResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	j.mu.Lock()
	if j.started {
		j.mu.Unlock()
		return JobResult{}, fmt.Errorf("autopipe: Job.Run called twice")
	}
	j.started = true
	j.runCancel = cancel
	j.status.State = JobRunning
	j.mu.Unlock()

	res, state, err := j.run(ctx)

	j.mu.Lock()
	j.snapshotLocked(state)
	if state == JobFailed {
		j.status.Error = err.Error()
	}
	j.finished, j.result, j.err = true, res, err
	// A finished job keeps only its status, result and last checkpoint:
	// the simulator and controller are garbage from here on, so a
	// daemon's memory does not grow with every job it has ever run.
	j.eng, j.ctl = nil, nil
	j.mu.Unlock()
	close(j.done)
	return res, err
}

// stopped reports whether the job should halt: Cancel was called or the
// run context expired (external deadline/cancellation).
func (j *Job) stopped(ctx context.Context) bool {
	return j.cancel.Load() || ctx.Err() != nil
}

// stopErr maps a stop to its cause: ErrCancelled for Cancel, the
// context's error for an external cancellation or deadline.
func (j *Job) stopErr(ctx context.Context) error {
	if j.cancel.Load() {
		return ErrCancelled
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return ErrCancelled
}

// run drives the simulation and returns the outcome with the terminal
// state for Run to publish.
func (j *Job) run(ctx context.Context) (JobResult, JobState, error) {
	if j.stopped(ctx) {
		return JobResult{}, JobCancelled, j.stopErr(ctx)
	}
	remaining := j.batches - j.base
	j.ctl.Start(ctx, remaining)
	stop := context.AfterFunc(ctx, func() { j.attention.Store(true) })
	defer stop()
	// One atomic load per event: the slow checks run only when a
	// Cancel, Pause or context cancellation has asked for them (and
	// once up front, for a Pause that came before Run).
	j.attention.Store(true)
	for {
		if j.attention.Load() {
			j.attention.Store(false)
			if j.stopped(ctx) || !j.waitIfPaused(ctx) {
				break
			}
		}
		if !j.eng.Step() {
			break
		}
	}
	e := j.ctl.Engine()
	if j.stopped(ctx) && e.Completed() < remaining {
		if j.fenceAbort.Load() && e.Switching() {
			// Fenced mid-switch: roll back to the incumbent plan so the
			// discarded copy never reflects a half-applied switch.
			e.AbortSwitch()
		}
		return JobResult{}, JobCancelled, j.stopErr(ctx)
	}
	if e.Completed() != remaining {
		return JobResult{}, JobFailed, fmt.Errorf("autopipe: job stalled at %d/%d batches", j.base+e.Completed(), j.batches)
	}
	out := JobResult{
		Result: Result{
			// Totals count from the job's original start; throughput,
			// utilization and the completion timeline cover the portion
			// this process actually simulated.
			Batches:     j.base + e.Completed(),
			Samples:     (j.base + e.Completed()) * j.cfg.Model.MiniBatch,
			Throughput:  e.Throughput(),
			Utilization: e.Utilization(),
			StashPeak:   e.StashPeak(),
		},
		Controller: j.ctl.Stats(),
		FinalPlan:  j.ctl.Plan(),
		Decisions:  j.ctl.DecisionLog(),
	}
	cs := e.Completions()
	if len(cs) > 0 {
		out.StartupTime = float64(cs[0])
		out.WallTime = float64(cs[len(cs)-1])
	}
	const w = 6
	for i := w; i < len(cs); i++ {
		dt := float64(cs[i] - cs[i-w])
		if dt > 0 {
			out.SpeedPerIteration = append(out.SpeedPerIteration, float64(w*j.cfg.Model.MiniBatch)/dt)
		}
	}
	return out, JobDone, nil
}

// OptimizePlan hill-climbs a plan for the cluster's current observed
// state using the two-worker-swap neighbourhood (boundary shifts and
// in-flight changes) — the static form of AutoPipe's search, used to
// "enhance" other pipeline schemes. The search stays within the starting
// plan's replication structure, which is safe for every schedule; use
// OptimizePlanWithMerge for the asynchronous engines where stage
// merges/replication pay off. Candidates are scored in parallel on
// GOMAXPROCS goroutines; the result is bit-identical to a serial
// search. On cancellation the best plan so far is returned with the
// context's error.
func OptimizePlan(ctx context.Context, m *Model, cl *Cluster, start Plan, scheme SyncScheme) (Plan, error) {
	prof := newProfile(m, cl)
	return ap.OptimizePlan(ctx, prof, start, m.MiniBatch,
		meta.AnalyticPredictor{Scheme: scheme}, ap.OptimizeOptions{MaxRounds: 64})
}

// OptimizePlanWithMerge extends OptimizePlan's neighbourhood with stage
// merges and splits (data-parallel replication changes).
func OptimizePlanWithMerge(ctx context.Context, m *Model, cl *Cluster, start Plan, scheme SyncScheme) (Plan, error) {
	prof := newProfile(m, cl)
	return ap.OptimizePlan(ctx, prof, start, m.MiniBatch,
		meta.AnalyticPredictor{Scheme: scheme}, ap.OptimizeOptions{MaxRounds: 64, UseMerge: true})
}

func newProfile(m *Model, cl *Cluster) *profile.Profile {
	return profile.NewProfiler(m, cl).Observe()
}

// DiffWorkers reports the workers whose task changes between two plans.
func DiffWorkers(a, b Plan) []int { return partition.DiffWorkers(a, b) }

// ChurnTrace generates a randomized Philly-style shared-cluster trace.
func ChurnTrace(seed int64, durationSec float64) Trace {
	return trace.Churn(rand.New(rand.NewSource(seed)), trace.ChurnConfig{
		Duration: durationSec, MeanArrival: durationSec / 4, MeanLifetime: durationSec / 3,
		BandwidthLevelsGbps: []float64{10, 25, 40, 100}, MeanBandwidthHold: durationSec / 5,
	})
}
