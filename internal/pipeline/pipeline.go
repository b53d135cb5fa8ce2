// Package pipeline executes pipeline-parallel DNN training on the
// discrete-event simulator: PipeDream-style asynchronous 1F1B (with
// weight stashing and optional 2BW gradient coalescing) in AsyncEngine,
// and the synchronous micro-batch schedules (GPipe, DAPPLE, Chimera) in
// SyncEngine. It is the executable substitute for the paper's
// PyTorch/TensorFlow/MXNet training runs: throughput emerges from
// simulated compute occupancy and simulated flows, not from a closed-form
// model — so a bad partition produces bubbles here exactly as it would on
// the testbed.
package pipeline

import (
	"fmt"

	"autopipe/internal/cluster"
	"autopipe/internal/model"
	"autopipe/internal/netsim"
	"autopipe/internal/partition"
	"autopipe/internal/sim"
)

// Framework models the host ML framework as a compute-efficiency factor
// (the paper evaluates the same workloads under TensorFlow, MXNet and
// PyTorch and sees constant-factor differences).
type Framework struct {
	Name       string
	Efficiency float64
}

// Framework presets.
var (
	TensorFlow = Framework{Name: "TensorFlow", Efficiency: 0.90}
	MXNet      = Framework{Name: "MXNet", Efficiency: 0.93}
	PyTorch    = Framework{Name: "PyTorch", Efficiency: 0.96}
)

// Config parametrises an engine.
type Config struct {
	Model   *model.Model
	Cluster *cluster.Cluster
	Plan    partition.Plan
	Scheme  netsim.SyncScheme
	// Framework defaults to PyTorch when zero.
	Framework Framework
	// SyncEvery is the gradient-coalescing period (PipeDream-2BW): the
	// replicated-stage gradient sync runs every SyncEvery-th backward
	// pass per stage. 0/1 means every mini-batch (vanilla PipeDream).
	SyncEvery int
	// CommPriority enables ByteScheduler-style communication
	// scheduling: latency-sensitive boundary activations/gradients get
	// a larger share weight than bulk gradient-sync traffic on
	// congested links.
	CommPriority bool
}

// Flow share weights under CommPriority.
const (
	boundaryFlowWeight = 4.0
	syncFlowWeight     = 1.0
)

// boundaryWeight returns the share weight for pipeline boundary flows.
func (c *Config) boundaryWeight() float64 {
	if c.CommPriority {
		return boundaryFlowWeight
	}
	return 1
}

func (c *Config) validate() error {
	if c.Model == nil || c.Cluster == nil {
		return fmt.Errorf("pipeline: nil model or cluster")
	}
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if err := c.Plan.Validate(c.Model.NumLayers(), c.Cluster.NumGPUs()); err != nil {
		return err
	}
	if c.Framework.Efficiency == 0 {
		c.Framework = PyTorch
	}
	if c.SyncEvery < 1 {
		c.SyncEvery = 1
	}
	return nil
}

type taskKind uint8

const (
	taskFP taskKind = iota
	taskBP
)

type task struct {
	kind  taskKind
	batch int
}

// replica is one worker's runtime state within a stage.
type replica struct {
	worker int
	stage  *stageRT

	busy    bool
	blocked bool // migration in progress (fine-grained switching)
	queue   []task
	// compute is the replica's one compute-completion event, bound at
	// build to taskDone and re-armed for every task; task is the task it
	// completes and epoch the plan epoch it was armed in.
	compute *sim.Event
	task    task
	epoch   uint64
	// pending is the in-flight compute completion event (compute while
	// armed, else nil), tracked so an evicting switch can cancel work
	// that would otherwise complete on a discarded replica.
	pending *sim.Event

	// Weight stashing (PipeDream §4.4 / AutoPipe §4.4): version is the
	// committed weight version; stash pairs each in-flight batch with the
	// version its forward pass used, so its backward pass uses the same
	// weights (at most InFlight entries, in FP order). stashPeak is
	// telemetry for the memory-cost analysis.
	version   int
	stash     []stashed
	stashPeak int
	bpCount   int   // backward passes completed (drives version bumps)
	memPeak   int64 // peak weight+activation memory (see memory.go)

	busyTime float64 // accumulated compute seconds (utilization)
}

// stageRT is a stage's runtime state.
type stageRT struct {
	idx        int
	start, end int
	replicas   []*replica
	// workers lists the replicas' workers for gradient syncs. A sync in
	// flight holds it, so it is built with the replica set and never
	// mutated.
	workers []int

	// params and acts total the parameter and activation bytes of the
	// layers [totStart, totEnd). Fine-grained switching moves start and
	// end in place, so totals recomputes them when the bounds differ.
	totStart, totEnd int
	params, acts     int64

	syncBusy    bool
	syncQueue   int // BP completions awaiting their gradient sync
	bpSinceSync int
}

func (s *stageRT) replicaFor(batch int) *replica {
	return s.replicas[batch%len(s.replicas)]
}

// AsyncEngine runs asynchronous 1F1B pipeline parallelism.
type AsyncEngine struct {
	eng *sim.Engine
	net *netsim.Network
	cfg Config

	stages    []*stageRT
	byWorker  map[int]*replica
	inFlight  int
	nextBatch int
	started   bool
	target    int // stop after this many batches; 0 = unbounded

	completions []sim.Time
	onBatchDone []func(batch int, at sim.Time)
	versions    []int // memoryUsage's scratch: distinct weight versions

	// switching state
	draining    bool
	pendingPlan *partition.Plan
	switchMode  SwitchMode
	switchDone  func(SwitchResult)
	switchStart sim.Time
	// switchEpoch invalidates callbacks scheduled by an aborted switch;
	// planEpoch invalidates data-path callbacks that captured replica
	// pointers discarded by a stage rebuild.
	switchEpoch    uint64
	planEpoch      uint64
	watchdog       *sim.Event
	watchdogQuiet  float64 // stall quiet-period (seconds) for this switch
	switchEvents   []*sim.Event
	migFlowsLive   []netsim.FlowID
	migPendingDst  map[int]int // unlanded migration transfers per destination
	committing     bool        // fine-grained switch past its point of no return
	migrating      bool        // restart/evict switch already started its migration phase
	onSwitchResult []func(SwitchResult)

	// SwitchSafetyFactor scales the predicted switch duration into the
	// watchdog deadline; ≤0 selects switchSafetyDefault.
	SwitchSafetyFactor float64

	// Stats
	SwitchCount      int
	MigratedBytes    int64
	AbortedSwitches  int
	MigrationRetries int
}

// NewAsync builds an asynchronous engine over an existing simulation
// engine and network (so cluster dynamics and other traffic can share the
// same virtual time).
func NewAsync(eng *sim.Engine, net *netsim.Network, cfg Config) (*AsyncEngine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &AsyncEngine{eng: eng, net: net, cfg: cfg, byWorker: map[int]*replica{}}
	e.buildStages(cfg.Plan)
	return e, nil
}

// stashed is one weight-stash entry: an in-flight batch and the weight
// version its forward pass used.
type stashed struct{ batch, version int }

// stashVersion records the committed version as the one batch's
// forward pass used, replacing any earlier entry for the batch.
func (r *replica) stashVersion(batch int) {
	for i := range r.stash {
		if r.stash[i].batch == batch {
			r.stash[i].version = r.version
			return
		}
	}
	r.stash = append(r.stash, stashed{batch, r.version})
}

// unstash drops batch's entry and reports whether it had one.
func (r *replica) unstash(batch int) bool {
	for i := range r.stash {
		if r.stash[i].batch == batch {
			r.stash = append(r.stash[:i], r.stash[i+1:]...)
			return true
		}
	}
	return false
}

func (e *AsyncEngine) buildStages(p partition.Plan) {
	e.planEpoch++
	e.stages = nil
	e.byWorker = map[int]*replica{}
	for i, s := range p.Stages {
		rt := &stageRT{idx: i, start: s.Start, end: s.End, totEnd: -1}
		for _, w := range s.Workers {
			r := &replica{worker: w, stage: rt, stash: make([]stashed, 0, max(p.InFlight, 1))}
			r.compute = sim.NewEvent("pipeline/task", func() { e.taskDone(r) })
			rt.replicas = append(rt.replicas, r)
			rt.workers = append(rt.workers, w)
			e.byWorker[w] = r
		}
		e.stages = append(e.stages, rt)
	}
}

// totals returns the stage's parameter and activation byte totals,
// recomputed only when its layer bounds have moved.
func (e *AsyncEngine) totals(s *stageRT) (params, acts int64) {
	if s.totStart != s.start || s.totEnd != s.end {
		s.params, s.acts = 0, 0
		for l := s.start; l < s.end; l++ {
			s.params += e.cfg.Model.Layers[l].ParamBytes()
			s.acts += e.cfg.Model.Layers[l].OutputBytes(e.cfg.Model.MiniBatch)
		}
		s.totStart, s.totEnd = s.start, s.end
	}
	return s.params, s.acts
}

// OnBatchDone registers a completion callback; multiple callbacks run
// in registration order.
func (e *AsyncEngine) OnBatchDone(fn func(batch int, at sim.Time)) {
	e.onBatchDone = append(e.onBatchDone, fn)
}

// Completions returns the completion times recorded so far.
func (e *AsyncEngine) Completions() []sim.Time { return e.completions }

// Completed returns the number of finished mini-batches.
func (e *AsyncEngine) Completed() int { return len(e.completions) }

// Plan returns the currently executing plan (reconstructed from runtime
// state).
func (e *AsyncEngine) Plan() partition.Plan {
	var p partition.Plan
	for _, s := range e.stages {
		st := partition.Stage{Start: s.start, End: s.end}
		for _, r := range s.replicas {
			st.Workers = append(st.Workers, r.worker)
		}
		p.Stages = append(p.Stages, st)
	}
	p.InFlight = e.cfg.Plan.InFlight
	return p
}

// Start begins injecting mini-batches. target ≤ 0 runs unbounded (the
// caller stops the sim engine).
func (e *AsyncEngine) Start(target int) {
	e.started = true
	e.target = target
	e.inject()
}

func (e *AsyncEngine) inject() {
	if e.draining || !e.started {
		return
	}
	for e.inFlight < e.cfg.Plan.InFlight && (e.target <= 0 || e.nextBatch < e.target) {
		b := e.nextBatch
		e.nextBatch++
		e.inFlight++
		r := e.stages[0].replicaFor(b)
		r.queue = append(r.queue, task{kind: taskFP, batch: b})
		e.tryStart(r)
	}
}

// tryStart launches the replica's next runnable task if it is idle.
// 1F1B policy: prefer the oldest backward pass; backward is gated on the
// stage's gradient sync not being in flight; fall back to the oldest
// forward pass.
func (e *AsyncEngine) tryStart(r *replica) {
	if r.busy || r.blocked || len(r.queue) == 0 {
		return
	}
	pick := -1
	if !r.stage.syncBusy {
		for i, t := range r.queue {
			if t.kind == taskBP {
				pick = i
				break
			}
		}
	}
	if pick < 0 {
		for i, t := range r.queue {
			if t.kind == taskFP {
				pick = i
				break
			}
		}
	}
	if pick < 0 {
		return
	}
	t := r.queue[pick]
	r.queue = append(r.queue[:pick], r.queue[pick+1:]...)
	r.busy = true

	var dur float64
	if t.kind == taskFP {
		dur = e.cfg.Cluster.StageFPTime(e.cfg.Model, r.stage.start, r.stage.end, r.worker)
	} else {
		dur = e.cfg.Cluster.StageBPTime(e.cfg.Model, r.stage.start, r.stage.end, r.worker)
	}
	dur /= e.cfg.Framework.Efficiency
	r.busyTime += dur
	r.task, r.epoch = t, e.planEpoch
	e.eng.Reschedule(r.compute, sim.Time(dur))
	r.pending = r.compute
}

// taskDone is the replica's compute event: its armed task has finished.
// The label is the constant "pipeline/task": event names are read only
// by sim.StepDebug.
func (e *AsyncEngine) taskDone(r *replica) {
	if e.planEpoch != r.epoch {
		return // replica was discarded by an evicting switch
	}
	t := r.task
	r.pending = nil
	r.busy = false
	e.onTaskDone(r, t)
	e.tryStart(r)
}

func (e *AsyncEngine) onTaskDone(r *replica, t task) {
	st := r.stage
	if t.kind == taskFP {
		// Weight stashing: remember the version this batch saw.
		r.stashVersion(t.batch)
		if len(r.stash) > r.stashPeak {
			r.stashPeak = len(r.stash)
		}
		e.noteMemory(r)
		if st.idx == len(e.stages)-1 {
			// Last stage: backward follows immediately (same replica).
			r.queue = append(r.queue, task{kind: taskBP, batch: t.batch})
			return
		}
		// Ship activations to the next stage's responsible replica.
		next := e.stages[st.idx+1]
		dst := next.replicaFor(t.batch)
		bytes := e.cfg.Model.Layers[st.end-1].OutputBytes(e.cfg.Model.MiniBatch)
		epoch := e.planEpoch
		e.net.StartWeightedFlow(r.worker, dst.worker, bytes, e.cfg.boundaryWeight(), netsim.Namef("act(b%d)%d→%d", t.batch, st.idx, next.idx), func() {
			if e.planEpoch != epoch {
				return // stale delivery to a discarded replica
			}
			dst.queue = append(dst.queue, task{kind: taskFP, batch: t.batch})
			e.tryStart(dst)
		})
		return
	}
	// Backward pass done: consume the stashed version (the invariant —
	// FP and BP of a batch use the same weights — is checked here).
	if !r.unstash(t.batch) {
		panic(fmt.Sprintf("pipeline: BP(b%d)@w%d without stashed weights", t.batch, r.worker))
	}
	// Weight update cadence: vanilla PipeDream commits a fresh version
	// per backward pass; 2BW-style coalescing (SyncEvery = m) commits
	// every m-th pass, so at most two versions stay live (the paper's
	// double-buffered weights).
	r.bpCount++
	if r.bpCount%e.cfg.SyncEvery == 0 {
		r.version++
	}
	e.noteMemory(r)

	// Replicated-stage gradient synchronisation, coalesced every
	// SyncEvery backward passes (2BW sets SyncEvery=m; PipeDream uses 1).
	if len(st.replicas) > 1 {
		st.bpSinceSync++
		if st.bpSinceSync >= e.cfg.SyncEvery {
			st.bpSinceSync = 0
			st.syncQueue++
			e.maybeStartSync(st)
		}
	}

	if st.idx == 0 {
		e.finishBatch(t.batch)
		return
	}
	// Ship the gradient to the previous stage's responsible replica.
	prev := e.stages[st.idx-1]
	dst := prev.replicaFor(t.batch)
	bytes := e.cfg.Model.Layers[st.start].GradientBytes(e.cfg.Model.MiniBatch)
	epoch := e.planEpoch
	e.net.StartWeightedFlow(r.worker, dst.worker, bytes, e.cfg.boundaryWeight(), netsim.Namef("grad(b%d)%d→%d", t.batch, st.idx, prev.idx), func() {
		if e.planEpoch != epoch {
			return // stale delivery to a discarded replica
		}
		dst.queue = append(dst.queue, task{kind: taskBP, batch: t.batch})
		e.tryStart(dst)
	})
}

func (e *AsyncEngine) maybeStartSync(st *stageRT) {
	if st.syncBusy || st.syncQueue == 0 {
		return
	}
	st.syncBusy = true
	st.syncQueue--
	bytes, _ := e.totals(st)
	epoch := e.planEpoch
	e.net.Sync(e.cfg.Scheme, st.workers, bytes, netsim.Namef("gradsync(stage%d)", st.idx), func() {
		if e.planEpoch != epoch {
			return // stage was discarded by an evicting switch
		}
		st.syncBusy = false
		for _, r := range st.replicas {
			e.tryStart(r)
		}
		e.maybeStartSync(st)
	})
}

// discardInFlight abandons every in-flight mini-batch (SwitchEvict):
// pending compute completions are cancelled, queues and stashes cleared,
// and the discarded batch indices returned to the injector. Bumping
// planEpoch kills the callbacks of flows already in the network, so a
// transfer that lands after the discard cannot resurrect stale work.
func (e *AsyncEngine) discardInFlight() {
	e.planEpoch++
	for _, r := range e.byWorker {
		if r.pending != nil {
			e.eng.Cancel(r.pending)
			r.pending = nil
		}
		r.busy = false
		r.queue = nil
		r.stash = r.stash[:0]
	}
	for _, st := range e.stages {
		st.syncBusy = false
		st.syncQueue = 0
		st.bpSinceSync = 0
	}
	e.nextBatch -= e.inFlight
	e.inFlight = 0
}

func (e *AsyncEngine) finishBatch(batch int) {
	e.inFlight--
	e.completions = append(e.completions, e.eng.Now())
	for _, fn := range e.onBatchDone {
		fn(batch, e.eng.Now())
	}
	if e.draining {
		e.noteSwitchProgress()
		if e.inFlight == 0 && !e.migrating {
			e.completeRestartSwitch()
			return
		}
	}
	e.inject()
}

// Utilization returns per-worker busy-time fractions over elapsed time.
func (e *AsyncEngine) Utilization() map[int]float64 {
	out := map[int]float64{}
	now := float64(e.eng.Now())
	if now <= 0 {
		return out
	}
	for w, r := range e.byWorker {
		out[w] = r.busyTime / now
	}
	return out
}

// StashPeak returns the largest weight-stash population seen on any
// replica (memory telemetry for weight stashing).
func (e *AsyncEngine) StashPeak() int {
	peak := 0
	for _, r := range e.byWorker {
		if r.stashPeak > peak {
			peak = r.stashPeak
		}
	}
	return peak
}
