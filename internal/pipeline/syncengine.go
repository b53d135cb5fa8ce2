package pipeline

import (
	"fmt"

	"autopipe/internal/netsim"
	"autopipe/internal/sim"
)

// SyncSchedule selects a synchronous pipeline-parallel schedule.
type SyncSchedule int

// Synchronous schedules (paper §2.1).
const (
	// GPipe: all micro-batch forwards flow through before any backward
	// starts; weight update at the flush.
	GPipe SyncSchedule = iota
	// DAPPLE: 1F1B micro-batch scheduling with a flush barrier per
	// mini-batch (synchronous PipeDream-style).
	DAPPLE
	// Chimera: two half-size pipelines in opposite directions over the
	// same workers, halving the bubble.
	Chimera
)

// String implements fmt.Stringer.
func (s SyncSchedule) String() string {
	switch s {
	case GPipe:
		return "GPipe"
	case DAPPLE:
		return "DAPPLE"
	case Chimera:
		return "Chimera"
	}
	return "unknown"
}

// SyncConfig parametrises a synchronous engine.
type SyncConfig struct {
	Config
	Schedule SyncSchedule
	// MicroBatches per mini-batch (M); defaults to 4.
	MicroBatches int
	// Recompute enables GPipe's activation recomputation: forward
	// activations are discarded to save memory and recomputed at the
	// start of each backward pass, adding one forward's compute to
	// every backward micro-step.
	Recompute bool
}

type sTask struct {
	pi    int // pipeline index (Chimera has 2)
	kind  taskKind
	micro int
}

type sWorker struct {
	id       int
	busy     bool
	queue    []sTask
	busyTime float64
}

type sStage struct {
	pi         int
	idx        int
	start, end int
	replicas   []*sWorker
	fpDone     int
	bpDone     int
	pendingBP  []int // GPipe: FPs awaiting the all-forwards barrier
}

func (s *sStage) replicaFor(micro int) *sWorker {
	return s.replicas[micro%len(s.replicas)]
}

// SyncEngine executes GPipe/DAPPLE/Chimera schedules on the simulator.
type SyncEngine struct {
	eng *sim.Engine
	net *netsim.Network
	cfg SyncConfig

	workers   map[int]*sWorker
	pipelines [][]*sStage // [pipeline][stage]
	microsOf  []int       // micros assigned to each pipeline
	inFlight  []int
	nextMicro []int

	miniBatch   int // current mini-batch index
	target      int
	flushed     int // stages fully backward-complete this mini-batch
	completions []sim.Time
}

// NewSync builds a synchronous engine.
func NewSync(eng *sim.Engine, net *netsim.Network, cfg SyncConfig) (*SyncEngine, error) {
	if err := cfg.Config.validate(); err != nil {
		return nil, err
	}
	if cfg.MicroBatches < 1 {
		cfg.MicroBatches = 4
	}
	e := &SyncEngine{eng: eng, net: net, cfg: cfg, workers: map[int]*sWorker{}}
	worker := func(id int) *sWorker {
		if w, ok := e.workers[id]; ok {
			return w
		}
		w := &sWorker{id: id}
		e.workers[id] = w
		return w
	}
	buildPipeline := func(pi int, groupOf func(stage int) []int) []*sStage {
		var ps []*sStage
		for i, st := range cfg.Plan.Stages {
			s := &sStage{pi: pi, idx: i, start: st.Start, end: st.End}
			for _, w := range groupOf(i) {
				s.replicas = append(s.replicas, worker(w))
			}
			ps = append(ps, s)
		}
		return ps
	}
	down := buildPipeline(0, func(i int) []int { return cfg.Plan.Stages[i].Workers })
	e.pipelines = [][]*sStage{down}
	M := cfg.MicroBatches
	if cfg.Schedule == Chimera {
		S := len(cfg.Plan.Stages)
		up := buildPipeline(1, func(i int) []int { return cfg.Plan.Stages[S-1-i].Workers })
		e.pipelines = append(e.pipelines, up)
		e.microsOf = []int{(M + 1) / 2, M / 2}
	} else {
		e.microsOf = []int{M}
	}
	e.inFlight = make([]int, len(e.pipelines))
	e.nextMicro = make([]int, len(e.pipelines))
	return e, nil
}

// Completions returns recorded mini-batch completion times.
func (e *SyncEngine) Completions() []sim.Time { return e.completions }

// Completed returns finished mini-batch count.
func (e *SyncEngine) Completed() int { return len(e.completions) }

// Throughput returns steady-state samples/sec.
func (e *SyncEngine) Throughput() float64 {
	return throughputOf(e.completions, e.cfg.Model.MiniBatch)
}

// Start begins training for the given number of mini-batches.
func (e *SyncEngine) Start(miniBatches int) {
	e.target = miniBatches
	e.startMiniBatch()
}

func (e *SyncEngine) startMiniBatch() {
	if e.miniBatch >= e.target {
		return
	}
	e.flushed = 0
	for pi, ps := range e.pipelines {
		e.inFlight[pi] = 0
		e.nextMicro[pi] = 0
		for _, s := range ps {
			s.fpDone, s.bpDone = 0, 0
			s.pendingBP = s.pendingBP[:0]
		}
		// A pipeline with zero micros is flushed from the outset.
		if e.microsOf[pi] == 0 {
			e.flushed += len(ps)
		}
	}
	for pi := range e.pipelines {
		e.injectMicros(pi)
	}
	// Degenerate single-pipeline-zero-micros case cannot happen (M≥1),
	// but Chimera with M=1 leaves the up pipeline empty.
	e.maybeFlush()
}

func (e *SyncEngine) injectMicros(pi int) {
	M := e.microsOf[pi]
	cap := M
	if e.cfg.Schedule != GPipe {
		// 1F1B window: at most one micro per stage in flight.
		if s := len(e.pipelines[pi]); s < cap {
			cap = s
		}
	}
	for e.inFlight[pi] < cap && e.nextMicro[pi] < M {
		micro := e.nextMicro[pi]
		e.nextMicro[pi]++
		e.inFlight[pi]++
		st := e.pipelines[pi][0]
		w := st.replicaFor(micro)
		w.queue = append(w.queue, sTask{pi: pi, kind: taskFP, micro: micro})
		e.tryStart(w)
	}
}

// microScale is the micro-batch fraction of a mini-batch.
func (e *SyncEngine) microScale() float64 {
	return 1.0 / float64(e.cfg.MicroBatches)
}

func (e *SyncEngine) stageOf(t sTask, w *sWorker) *sStage {
	for _, s := range e.pipelines[t.pi] {
		for _, r := range s.replicas {
			if r == w {
				return s
			}
		}
	}
	panic("pipeline: worker not in task's pipeline")
}

func (e *SyncEngine) tryStart(w *sWorker) {
	if w.busy || len(w.queue) == 0 {
		return
	}
	pick := -1
	for i, t := range w.queue {
		if t.kind == taskBP {
			pick = i
			break
		}
	}
	if pick < 0 {
		pick = 0
	}
	t := w.queue[pick]
	w.queue = append(w.queue[:pick], w.queue[pick+1:]...)
	w.busy = true
	st := e.stageOf(t, w)
	var dur float64
	if t.kind == taskFP {
		dur = e.cfg.Cluster.StageFPTime(e.cfg.Model, st.start, st.end, w.id)
	} else {
		dur = e.cfg.Cluster.StageBPTime(e.cfg.Model, st.start, st.end, w.id)
		if e.cfg.Recompute {
			// GPipe recomputation: replay the forward pass first.
			dur += e.cfg.Cluster.StageFPTime(e.cfg.Model, st.start, st.end, w.id)
		}
	}
	dur = dur * e.microScale() / e.cfg.Framework.Efficiency
	w.busyTime += dur
	e.eng.After(sim.Time(dur), fmt.Sprintf("sync%s(p%d,m%d)@w%d", kindStr(t.kind), t.pi, t.micro, w.id), func() {
		w.busy = false
		e.onTaskDone(st, w, t)
		e.tryStart(w)
	})
}

func kindStr(k taskKind) string {
	if k == taskFP {
		return "FP"
	}
	return "BP"
}

func (e *SyncEngine) onTaskDone(st *sStage, w *sWorker, t sTask) {
	ps := e.pipelines[t.pi]
	last := len(ps) - 1
	microBytes := func(full int64) int64 {
		b := full / int64(e.cfg.MicroBatches)
		if b < 1 {
			b = 1
		}
		return b
	}
	if t.kind == taskFP {
		st.fpDone++
		if st.idx == last {
			if e.cfg.Schedule == GPipe {
				st.pendingBP = append(st.pendingBP, t.micro)
				if st.fpDone == e.microsOf[t.pi] {
					// All forwards done: release backwards, last first.
					for i := len(st.pendingBP) - 1; i >= 0; i-- {
						m := st.pendingBP[i]
						r := st.replicaFor(m)
						r.queue = append(r.queue, sTask{pi: t.pi, kind: taskBP, micro: m})
						e.tryStart(r)
					}
					st.pendingBP = st.pendingBP[:0]
				}
				return
			}
			w.queue = append(w.queue, sTask{pi: t.pi, kind: taskBP, micro: t.micro})
			return
		}
		next := ps[st.idx+1]
		dst := next.replicaFor(t.micro)
		bytes := microBytes(e.cfg.Model.Layers[st.end-1].OutputBytes(e.cfg.Model.MiniBatch))
		e.net.StartFlow(w.id, dst.id, bytes, netsim.Namef("sact(p%d,m%d)", t.pi, t.micro), func() {
			dst.queue = append(dst.queue, sTask{pi: t.pi, kind: taskFP, micro: t.micro})
			e.tryStart(dst)
		})
		return
	}
	// Backward.
	st.bpDone++
	if st.idx == 0 {
		e.inFlight[t.pi]--
		e.injectMicros(t.pi)
	} else {
		prev := ps[st.idx-1]
		dst := prev.replicaFor(t.micro)
		bytes := microBytes(e.cfg.Model.Layers[st.start].GradientBytes(e.cfg.Model.MiniBatch))
		e.net.StartFlow(w.id, dst.id, bytes, netsim.Namef("sgrad(p%d,m%d)", t.pi, t.micro), func() {
			dst.queue = append(dst.queue, sTask{pi: t.pi, kind: taskBP, micro: t.micro})
			e.tryStart(dst)
		})
	}
	if st.bpDone == e.microsOf[t.pi] {
		e.flushed++
		e.maybeFlush()
	}
}

// maybeFlush runs the end-of-mini-batch synchronisation once every stage
// of every pipeline has completed all its backward passes.
func (e *SyncEngine) maybeFlush() {
	total := 0
	for _, ps := range e.pipelines {
		total += len(ps)
	}
	if e.flushed < total {
		return
	}
	e.flushed = -1 << 30 // guard against re-entry
	// Gradient synchronisation per layer range: the union of every
	// pipeline's worker group for that stage index (Chimera pairs the
	// down-stage group with the mirrored up-stage group).
	S := len(e.cfg.Plan.Stages)
	remaining := 0
	finishOne := func() {
		remaining--
		if remaining == 0 {
			e.completions = append(e.completions, e.eng.Now())
			e.miniBatch++
			e.startMiniBatch()
		}
	}
	var syncs []func()
	for i := 0; i < S; i++ {
		seen := map[int]bool{}
		var workers []int
		for _, ps := range e.pipelines {
			for _, r := range ps[i].replicas {
				if !seen[r.id] {
					seen[r.id] = true
					workers = append(workers, r.id)
				}
			}
		}
		if len(workers) < 2 {
			continue
		}
		var bytes int64
		for l := e.cfg.Plan.Stages[i].Start; l < e.cfg.Plan.Stages[i].End; l++ {
			bytes += e.cfg.Model.Layers[l].ParamBytes()
		}
		i := i
		syncs = append(syncs, func() {
			e.net.Sync(e.cfg.Scheme, workers, bytes, netsim.Namef("flushsync(stage%d)", i), finishOne)
		})
	}
	if len(syncs) == 0 {
		// No replicated groups: the flush completes after a negligible
		// local weight-update step.
		e.eng.After(0, "flush/update", func() {
			e.completions = append(e.completions, e.eng.Now())
			e.miniBatch++
			e.startMiniBatch()
		})
		return
	}
	remaining = len(syncs)
	for _, s := range syncs {
		s()
	}
}

// Utilization returns per-worker busy fractions.
func (e *SyncEngine) Utilization() map[int]float64 {
	out := map[int]float64{}
	now := float64(e.eng.Now())
	if now <= 0 {
		return out
	}
	for id, w := range e.workers {
		out[id] = w.busyTime / now
	}
	return out
}

// MeasureSync runs a synchronous engine for the given mini-batches on a
// fresh simulation.
func MeasureSync(cfg SyncConfig, miniBatches int) (Result, error) {
	if miniBatches <= 0 {
		return Result{}, fmt.Errorf("pipeline: non-positive mini-batch count")
	}
	eng := sim.NewEngine()
	net := netsim.New(eng, cfg.Cluster)
	e, err := NewSync(eng, net, cfg)
	if err != nil {
		return Result{}, err
	}
	e.Start(miniBatches)
	eng.RunAll()
	if e.Completed() != miniBatches {
		return Result{}, fmt.Errorf("pipeline: sync engine deadlock — %d of %d", e.Completed(), miniBatches)
	}
	res := Result{
		Batches:     e.Completed(),
		Samples:     e.Completed() * cfg.Model.MiniBatch,
		WallTime:    float64(eng.Now()),
		Throughput:  e.Throughput(),
		Utilization: e.Utilization(),
	}
	if len(e.completions) > 0 {
		res.StartupTime = float64(e.completions[0])
	}
	return res, nil
}
