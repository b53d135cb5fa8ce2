// Package autopipe implements the paper's core contribution: the
// self-adaptive pipeline-parallelism controller. It ties the substrates
// together:
//
//   - a resource-change detector polling the cluster's observable state
//     through the profiler (§4.1 key component 1);
//   - the meta-network (or analytic fallback) predicting the training
//     speed of candidate partitions (§4.2);
//   - the O(L²) two-worker-swap candidate search initialised from
//     PipeDream's DP solution (§4.2 "New worker partition");
//   - the RL arbiter deciding whether the predicted gain justifies the
//     switching cost (§4.3);
//   - fine-grained, layer-by-layer state switching with weight stashing
//     on the pipeline engine (§4.4).
package autopipe

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"autopipe/internal/cluster"
	"autopipe/internal/meta"
	"autopipe/internal/model"
	"autopipe/internal/netsim"
	"autopipe/internal/partition"
	"autopipe/internal/pipeline"
	"autopipe/internal/profile"
	"autopipe/internal/rl"
	"autopipe/internal/sim"
)

// Config parametrises a controller.
type Config struct {
	Model   *model.Model
	Cluster *cluster.Cluster
	// Workers is the GPU set allocated to this job.
	Workers []int
	Scheme  netsim.SyncScheme
	// Framework defaults to PyTorch.
	Framework pipeline.Framework
	// SyncEvery is the gradient-coalescing period (PipeDream-2BW); 0/1
	// syncs every mini-batch.
	SyncEvery int

	// Predictor scores candidate partitions; nil selects the
	// scheme-aware analytic predictor (the meta-network drop-in).
	Predictor meta.Predictor
	// Arbiter gates switches; nil selects a cost/benefit threshold rule
	// equivalent to a well-trained arbiter's greedy policy.
	Arbiter *rl.Arbiter
	// CostNet predicts switching cost; nil selects the analytic model.
	CostNet *meta.CostNet

	// CheckEvery is the decision period in iterations (default 5).
	CheckEvery int
	// Procs bounds parallel candidate scoring during decisions (<=0
	// selects GOMAXPROCS); a batched round fans out only as far as its
	// measured cost pays for. Scoring is bit-identical at any setting;
	// predictors that are not concurrency-safe fall back to serial.
	Procs int
	// RewardHorizon is the iteration window used to compute online
	// rewards for REINFORCE adaptation (default 10).
	RewardHorizon int
	// OnlineAdapt enables online policy-gradient updates to the arbiter
	// and (for NetPredictor/HybridPredictor) meta-network adaptation.
	OnlineAdapt bool
	// DisableReconfig freezes the initial plan (turns AutoPipe into
	// plain PipeDream — the ablation baseline).
	DisableReconfig bool
	// UseMergeNeighborhood extends the candidate set with stage
	// merges/splits (still ≤2 workers affected).
	UseMergeNeighborhood bool
	// MinGain is the minimum predicted relative speed gain to consider
	// a candidate at all (default 2%).
	MinGain float64
	// AlwaysSwitch bypasses the arbiter/threshold gate and applies any
	// candidate that clears MinGain — the straw-man policy of §3.1
	// ("perform work partition whenever available resources change"),
	// kept as an ablation baseline.
	AlwaysSwitch bool
	// OracleBandwidth makes the profiler read the cluster's ground-truth
	// available bandwidth (the pre-measurement behavior). By default the
	// profiler estimates bandwidth from the job's own flow-completion
	// records — the only signal a real job has.
	OracleBandwidth bool
	// ProfileNoise, when positive, injects multiplicative log-normal
	// measurement noise of this sigma into the profiler (driven by Rng);
	// ProfileSmoothing sets the profiler's EWMA alpha (0 keeps the
	// default).
	ProfileNoise     float64
	ProfileSmoothing float64
	// InitialPlan overrides the PipeDream DP initialisation.
	InitialPlan *partition.Plan

	// Restore resumes from a checkpoint: the initial plan, counters,
	// evicted workers and RNG position all come from it (InitialPlan is
	// ignored). See Controller.Checkpoint.
	Restore *Checkpoint

	// Rng drives stochastic exploration during online adaptation. Leave
	// nil for a checkpointable RNG seeded from RngSeed; a caller-owned
	// Rng cannot have its position captured by Checkpoint.
	Rng *rand.Rand
	// RngSeed seeds the internal RNG when Rng is nil (default 1).
	RngSeed int64
}

// Stats aggregates controller activity. It serialises through
// encoding/json (snake_case field names); the wire form is shared by
// `autopipe-sim -json` and the autopiped daemon's API.
type Stats struct {
	Iterations      int     `json:"iterations"`
	Decisions       int     `json:"decisions"`        // candidate evaluations performed
	SwitchesChosen  int     `json:"switches_chosen"`  // arbiter said yes
	SwitchesApplied int     `json:"switches_applied"` // committed on the engine
	DecisionSeconds float64 `json:"decision_seconds"` // cumulative wall-clock spent deciding (Fig 12)
	ResourceChanges int     `json:"resource_changes"` // detector firings
	Evictions       int     `json:"evictions"`        // failed workers evicted from the plan
	Adaptations     int     `json:"adaptations"`      // online meta-network fine-tuning rounds
	// Fault-tolerance telemetry: switches aborted by the watchdog or
	// abort-then-evict, migration-flow retransmissions, and evictions
	// that had to abort an in-flight switch to proceed.
	AbortedSwitches  int `json:"aborted_switches"`
	MigrationRetries int `json:"migration_retries"`
	QueuedEvictions  int `json:"queued_evictions"`
	// SwitchSecondsPredicted sums the cost model's estimate over applied
	// switches; SwitchSecondsRealized sums the virtual time each of those
	// switches actually took from decision to commit. Their ratio is the
	// cost predictor's online calibration error.
	SwitchSecondsPredicted float64 `json:"switch_seconds_predicted"`
	SwitchSecondsRealized  float64 `json:"switch_seconds_realized"`
	// Search telemetry: candidates the predictor actually scored, scores
	// served by the plan-hash memo cache, cumulative and most-recent
	// per-decision search wall-clock, and the aggregate per-candidate
	// predictor time (ScoreSeconds/SearchSeconds ≈ parallel speedup).
	CandidatesScored  int64   `json:"candidates_scored"`
	SearchCacheHits   int64   `json:"search_cache_hits"`
	SearchSeconds     float64 `json:"search_seconds"`
	LastSearchSeconds float64 `json:"last_search_seconds"`
	ScoreSeconds      float64 `json:"score_seconds"`
	// SearchCacheHitRate is SearchCacheHits over all score lookups —
	// derived, but serialised so dashboards don't recompute it. The
	// score cache persists across decide rounds while the profile epoch
	// (and, for history-aware predictors, the history window) is
	// unchanged, so a quiet cluster drives this towards 1.
	SearchCacheHitRate float64 `json:"search_cache_hit_rate"`
}

// Controller runs one AutoPipe-managed training job on a simulation.
type Controller struct {
	cfg      Config
	eng      *sim.Engine
	net      *netsim.Network
	engine   *pipeline.AsyncEngine
	profiler *profile.Profiler
	// prof is the controller's one Profile, refilled in place every
	// iteration (profile.ObserveInto): its contents are valid until the
	// next iteration, so nothing that outlives an iteration keeps it.
	prof    profile.Profile
	history *meta.History
	// ctx is the run's cancellation scope, installed by Start; decisions
	// abort mid-search when it is cancelled.
	ctx context.Context

	predictor meta.Predictor
	plan      partition.Plan
	// planGen counts committed plan changes (see PlanGen).
	planGen uint64

	lastVersion      uint64
	itersSinceSwitch int
	stats            Stats
	excluded         map[int]bool // workers evicted after failure
	// failScratch is detectFailures' reusable working memory.
	failScratch struct {
		workers, failed []int
		times, sorted   []float64
	}

	// RNG draw tracking for Checkpoint (nil when the caller supplied
	// its own Rng).
	rngSrc  *countingSource
	rngSeed int64
	// Engine-owned counters carried across a Restore (the fresh engine
	// restarts them at zero).
	abortedBase  int
	migRetryBase int

	// Candidate-scoring state persisted across decide rounds: the scorer
	// (whose memo cache survives while searchKey is unchanged), the cache
	// key it was last valid for, the arena candidate plans are carved
	// from, and the reusable candidate slice. See decide.
	search      *scoreSet
	searchKey   searchCacheKey
	searchArena partition.Arena
	searchCands []partition.Plan

	// Pending online-reward bookkeeping for REINFORCE.
	pending *pendingDecision
	// speed ring of recent window throughputs (normalized).
	recent []float64
	// Online meta-network adaptation state.
	adaptSamples []meta.Sample
	// Decision log (see log.go) and the count of decisions ever logged.
	decisionLog     []DecisionRecord
	decisionsLogged uint64
}

type pendingDecision struct {
	x         []float64
	action    bool
	madeAt    int // iteration index
	beforeAvg float64
}

// New builds a controller. The initial work partition is PipeDream's DP
// plan unless overridden.
func New(eng *sim.Engine, net *netsim.Network, cfg Config) (*Controller, error) {
	if cfg.Model == nil || cfg.Cluster == nil {
		return nil, fmt.Errorf("autopipe: nil model or cluster")
	}
	if len(cfg.Workers) == 0 {
		for i := 0; i < cfg.Cluster.NumGPUs(); i++ {
			cfg.Workers = append(cfg.Workers, i)
		}
	}
	if cfg.CheckEvery < 1 {
		cfg.CheckEvery = 5
	}
	if cfg.RewardHorizon < 2 {
		cfg.RewardHorizon = 10
	}
	if cfg.MinGain == 0 {
		cfg.MinGain = 0.02
	}
	var rngSrc *countingSource
	rngSeed := cfg.RngSeed
	if rngSeed == 0 {
		rngSeed = 1
	}
	if cfg.Rng == nil {
		// Fast-forward to the checkpointed RNG cursor before anything
		// (profiler noise, arbiter exploration) captures the Rand.
		var skip uint64
		if cfg.Restore != nil && cfg.Restore.RngTracked {
			rngSeed = cfg.Restore.RngSeed
			skip = cfg.Restore.RngDraws
		}
		cfg.Rng, rngSrc = newTrackedRng(rngSeed, skip)
	}
	profiler := profile.NewProfiler(cfg.Model, cfg.Cluster)
	if !cfg.OracleBandwidth && net != nil {
		profiler.AttachNetwork(net)
	}
	var plan partition.Plan
	if cfg.Restore != nil {
		if err := cfg.Restore.Validate(cfg.Model.NumLayers(), cfg.Cluster.NumGPUs()); err != nil {
			return nil, fmt.Errorf("autopipe: restore: %w", err)
		}
		plan = cfg.Restore.Plan.Clone()
	} else if cfg.InitialPlan != nil {
		plan = cfg.InitialPlan.Clone()
	} else {
		cm := partition.NewPipeDreamCost(cfg.Model, cfg.Cluster, cfg.Workers[0], profiler.SeedBandwidthBps())
		plan = initialPlan(cm, cfg.Workers)
	}
	if err := plan.Validate(cfg.Model.NumLayers(), cfg.Cluster.NumGPUs()); err != nil {
		return nil, fmt.Errorf("autopipe: initial plan: %w", err)
	}
	engine, err := pipeline.NewAsync(eng, net, pipeline.Config{
		Model: cfg.Model, Cluster: cfg.Cluster, Plan: plan,
		Scheme: cfg.Scheme, Framework: cfg.Framework, SyncEvery: cfg.SyncEvery,
	})
	if err != nil {
		return nil, err
	}
	pred := cfg.Predictor
	if pred == nil {
		pred = meta.AnalyticPredictor{Scheme: cfg.Scheme}
	}
	if cfg.ProfileNoise > 0 {
		profiler.SetNoise(cfg.Rng, cfg.ProfileNoise)
	}
	if cfg.ProfileSmoothing > 0 {
		if err := profiler.SetSmoothing(cfg.ProfileSmoothing); err != nil {
			return nil, err
		}
	}
	c := &Controller{
		cfg: cfg, eng: eng, net: net, engine: engine,
		profiler:    profiler,
		history:     &meta.History{},
		predictor:   pred,
		plan:        plan,
		lastVersion: cfg.Cluster.Version(),
		excluded:    map[int]bool{},
		rngSrc:      rngSrc,
		rngSeed:     rngSeed,
	}
	if cfg.Restore != nil {
		c.restore(*cfg.Restore)
	}
	engine.OnBatchDone(c.onIteration)
	engine.OnSwitchResult(c.onSwitchResult)
	return c, nil
}

// onSwitchResult reacts to switch outcomes from the engine. An aborted
// switch is logged; when the abort identified stalled migration
// destinations (the watchdog exhausted retries against them), those
// workers are evicted immediately rather than waiting for the failure
// detector to notice their compute degradation.
func (c *Controller) onSwitchResult(res pipeline.SwitchResult) {
	if res.Committed {
		return
	}
	c.logDecision(DecisionRecord{Kind: "abort"})
	if len(res.StalledWorkers) > 0 && !c.cfg.DisableReconfig {
		c.evict(res.StalledWorkers)
	}
}

// Engine exposes the underlying pipeline engine (read-mostly).
func (c *Controller) Engine() *pipeline.AsyncEngine { return c.engine }

// Plan returns the current work partition.
func (c *Controller) Plan() partition.Plan { return c.plan.Clone() }

// PlanGen counts the plan changes committed so far: a snapshot of Plan
// taken at one PlanGen stays current until PlanGen moves.
func (c *Controller) PlanGen() uint64 { return c.planGen }

// setPlan commits p as the current plan.
func (c *Controller) setPlan(p partition.Plan) {
	c.plan = p
	c.planGen++
}

// Stats returns the controller's activity counters, merged with the
// engine-owned fault-tolerance counters.
func (c *Controller) Stats() Stats {
	st := c.stats
	st.AbortedSwitches = c.abortedBase + c.engine.AbortedSwitches
	st.MigrationRetries = c.migRetryBase + c.engine.MigrationRetries
	if total := st.CandidatesScored + st.SearchCacheHits; total > 0 {
		st.SearchCacheHitRate = float64(st.SearchCacheHits) / float64(total)
	}
	return st
}

// Start begins training for the given number of mini-batches. ctx
// scopes the run's long computations: a cancelled context makes any
// in-flight candidate search abort promptly (nil means Background).
func (c *Controller) Start(ctx context.Context, batches int) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.ctx = ctx
	c.engine.Start(batches)
}

// Throughput returns steady-state samples/sec so far.
func (c *Controller) Throughput() float64 { return c.engine.Throughput() }

// onIteration is the per-mini-batch control loop.
func (c *Controller) onIteration(batch int, _ sim.Time) {
	c.stats.Iterations++
	c.itersSinceSwitch++

	prof := c.profiler.ObserveInto(&c.prof)
	ideal := meta.IdealThroughput(prof, c.cfg.Model.MiniBatch)
	normTp := 0.0
	if ideal > 0 {
		normTp = c.engine.ThroughputWindow(5) / ideal
	}
	c.history.Push(meta.EncodeDynamicStep(prof, normTp))
	c.recent = append(c.recent, normTp)
	if len(c.recent) > 4*c.cfg.RewardHorizon {
		c.recent = c.recent[len(c.recent)-4*c.cfg.RewardHorizon:]
	}

	// Resource-change detector.
	if v := c.cfg.Cluster.Version(); v != c.lastVersion {
		c.lastVersion = v
		c.stats.ResourceChanges++
	}

	c.resolvePendingReward()
	c.adaptMetaNet(prof, normTp)

	if c.cfg.DisableReconfig {
		return
	}
	if c.stats.Iterations%c.cfg.CheckEvery != 0 {
		return
	}
	// Failure handling runs even mid-switch (abort-then-evict); the
	// ordinary replanning path still waits for the switch to settle.
	if c.handleFailures(prof) {
		return
	}
	if c.engine.Switching() {
		return
	}
	c.decide(prof)
}

// searchCacheKey identifies the scoring context a memoised candidate
// score is valid for: the profile's observation-content epoch, the
// history-window generation (zero for history-independent predictors,
// whose scores don't depend on the window), and the number of online
// meta-network adaptations (each one mutates the hybrid's weights and
// blend, invalidating every past score).
type searchCacheKey struct {
	profEpoch uint64
	histGen   uint64
	adaptGen  uint64
}

// searchScorer returns the persistent scorer for this decide round,
// keeping the memoised candidate scores from previous rounds whenever
// the scoring context (profile epoch / history generation / adaptation
// count) is unchanged — on a quiet cluster every repeat candidate is
// then served from cache and the predictor runs only on genuinely new
// plans. Per-round stats are zeroed; the caller folds them into Stats.
func (c *Controller) searchScorer(prof *profile.Profile) *scoreSet {
	key := searchCacheKey{profEpoch: prof.Epoch, adaptGen: uint64(c.stats.Adaptations)}
	if meta.UsesHistory(c.predictor) {
		key.histGen = c.history.Gen()
	}
	if c.search == nil {
		c.search = newScoreSet(c.ctx, c.predictor, prof, c.cfg.Model.MiniBatch, c.history, c.cfg.Procs)
		c.searchKey = key
		return c.search
	}
	c.search.ctx = c.ctx
	c.search.stats = SearchStats{}
	if key != c.searchKey {
		clear(c.search.cache)
		c.searchKey = key
	}
	// Equal epochs guarantee identical profile contents, so rebinding to
	// the latest observation is sound in both branches.
	c.search.prof = prof
	return c.search
}

// decide evaluates the two-worker-swap neighbourhood and possibly
// triggers a switch.
func (c *Controller) decide(prof *profile.Profile) {
	start := time.Now()
	defer func() { c.stats.DecisionSeconds += time.Since(start).Seconds() }()
	c.stats.Decisions++

	mb := c.cfg.Model.MiniBatch
	// Incumbent first, then the neighbourhood (arena-allocated): one
	// scoring batch; the serial in-order reduction below keeps the chosen
	// plan bit-identical to serial evaluation at any procs setting.
	c.searchArena.Reset()
	candidates := append(c.searchCands[:0], c.plan)
	if c.cfg.UseMergeNeighborhood {
		candidates = partition.AppendNeighborsWithMerge(candidates, &c.searchArena, c.plan)
	} else {
		candidates = partition.AppendNeighbors(candidates, &c.searchArena, c.plan)
	}
	candidates = partition.AppendInFlightVariants(candidates, &c.searchArena, c.plan, 2*len(c.cfg.Workers))
	c.searchCands = candidates
	ss := c.searchScorer(prof)
	ss.base = c.plan
	speeds, serr := ss.scores(candidates)
	c.stats.CandidatesScored += int64(ss.stats.Candidates)
	c.stats.SearchCacheHits += int64(ss.stats.CacheHits)
	c.stats.SearchSeconds += ss.stats.WallSeconds
	c.stats.LastSearchSeconds = ss.stats.WallSeconds
	c.stats.ScoreSeconds += ss.stats.ScoreSeconds
	if serr != nil {
		return // cancelled mid-search; the run loop exits right after
	}
	curSpeed := speeds[0]
	best := c.plan
	bestSpeed := curSpeed
	for i, q := range candidates[1:] {
		if s := speeds[i+1]; s > bestSpeed {
			bestSpeed, best = s, q
		}
	}
	if best.Equal(c.plan) || bestSpeed < curSpeed*(1+c.cfg.MinGain) {
		c.logDecision(DecisionRecord{Kind: "keep", PredCurrent: curSpeed, PredCandidate: bestSpeed})
		return
	}
	// The winner outlives this round (decision log, async ApplyPlan
	// commit) while its arena storage is recycled next decide — move it
	// to the heap.
	best = best.Clone()
	// Switching-cost prediction.
	var cost float64
	if c.cfg.CostNet != nil {
		cost = c.cfg.CostNet.PredictSeconds(meta.EncodeCostFeatures(prof, c.cfg.Model, c.plan, best))
	} else {
		cost = meta.AnalyticSwitchCost(prof, c.cfg.Model, c.plan, best)
	}
	state := rl.State{
		Profile: prof, MiniBatch: mb,
		Current: c.plan, Candidate: best,
		PredCurrent: curSpeed, PredCandidate: bestSpeed,
		SwitchCost: cost, FineGrained: pipeline.BoundaryCompatible(c.plan, best),
		ItersSinceSwitch: c.itersSinceSwitch,
	}
	var doSwitch bool
	var x []float64
	if c.cfg.AlwaysSwitch {
		doSwitch = true
	} else if c.cfg.Arbiter != nil {
		x = rl.Encode(state)
		if c.cfg.OnlineAdapt {
			doSwitch = c.cfg.Arbiter.SampleAction(x, c.cfg.Rng)
		} else {
			doSwitch = c.cfg.Arbiter.Decide(x)
		}
	} else {
		// Threshold rule: the gain over the reward horizon must exceed
		// the switching cost with margin.
		perBatch := float64(mb) / curSpeed
		horizonGain := (bestSpeed - curSpeed) / curSpeed * perBatch * float64(c.cfg.RewardHorizon)
		doSwitch = horizonGain > cost*1.2
	}
	if c.cfg.Arbiter != nil && c.cfg.OnlineAdapt {
		c.pending = &pendingDecision{
			x: x, action: doSwitch, madeAt: c.stats.Iterations,
			beforeAvg: meanTail(c.recent, c.cfg.RewardHorizon),
		}
	}
	kind := "switch"
	if pipeline.BoundaryCompatible(c.plan, best) && best.NumStages() == len(c.plan.Stages) {
		if sameBoundaries(c.plan, best) {
			kind = "inflight"
		}
	}
	if !doSwitch {
		c.logDecision(DecisionRecord{Kind: "keep", PredCurrent: curSpeed, PredCandidate: bestSpeed, SwitchCost: cost, Candidate: best})
		return
	}
	c.logDecision(DecisionRecord{Kind: kind, PredCurrent: curSpeed, PredCandidate: bestSpeed, SwitchCost: cost, Candidate: best})
	c.stats.SwitchesChosen++
	newPlan := best
	predCost := cost
	switchStart := c.eng.Now()
	if err := c.engine.ApplyPlan(newPlan, pipeline.SwitchAuto, func(res pipeline.SwitchResult) {
		if !res.Committed {
			return // aborted: the incumbent plan stayed authoritative
		}
		c.setPlan(newPlan)
		c.stats.SwitchesApplied++
		c.stats.SwitchSecondsPredicted += predCost
		c.stats.SwitchSecondsRealized += float64(c.eng.Now() - switchStart)
		c.itersSinceSwitch = 0
	}); err != nil {
		// A concurrent switch slipped in; skip this round.
		c.stats.SwitchesChosen--
	}
}

// adaptEvery is the online meta-network fine-tuning period.
const adaptEvery = 20

// adaptMetaNet implements the §4.3 online-adaptation loop for the speed
// predictor: each iteration contributes a (features of the running plan,
// observed normalized speed) sample; every adaptEvery iterations the
// hybrid predictor's network takes a few low-learning-rate steps on the
// recent window and earns more blending weight.
func (c *Controller) adaptMetaNet(prof *profile.Profile, normTp float64) {
	if !c.cfg.OnlineAdapt {
		return
	}
	hp, ok := c.predictor.(*meta.HybridPredictor)
	if !ok || hp.Net == nil || normTp <= 0 {
		return
	}
	c.adaptSamples = append(c.adaptSamples, meta.Sample{
		F: meta.BuildFeatures(prof, c.plan, c.cfg.Model.MiniBatch, c.history),
		Y: normTp,
	})
	if len(c.adaptSamples) > 2*adaptEvery {
		c.adaptSamples = c.adaptSamples[len(c.adaptSamples)-2*adaptEvery:]
	}
	if c.stats.Iterations%adaptEvery != 0 || len(c.adaptSamples) < adaptEvery/2 {
		return
	}
	start := time.Now()
	hp.Net.Adapt(c.adaptSamples, 4)
	// Trust the network more as it accumulates on-job evidence.
	if hp.NetWeight < 0.6 {
		hp.NetWeight += 0.1
	}
	c.stats.DecisionSeconds += time.Since(start).Seconds()
	c.stats.Adaptations++
}

// resolvePendingReward closes out an exploration decision once its
// reward horizon has elapsed, applying a REINFORCE update.
func (c *Controller) resolvePendingReward() {
	p := c.pending
	if p == nil || c.cfg.Arbiter == nil {
		return
	}
	if c.stats.Iterations-p.madeAt < c.cfg.RewardHorizon {
		return
	}
	afterAvg := meanTail(c.recent, c.cfg.RewardHorizon)
	advantage := afterAvg - p.beforeAvg
	c.cfg.Arbiter.Reinforce(p.x, p.action, advantage)
	c.pending = nil
}

// sameBoundaries reports whether two plans share every stage boundary
// and worker assignment (differing only in InFlight). Worker sets must
// match too: a replica migration keeps the boundaries but still moves
// weights, so it is a structural switch, not a free in-flight change.
func sameBoundaries(a, b partition.Plan) bool {
	if len(a.Stages) != len(b.Stages) {
		return false
	}
	for i := range a.Stages {
		if a.Stages[i].Start != b.Stages[i].Start || a.Stages[i].End != b.Stages[i].End {
			return false
		}
		if len(a.Stages[i].Workers) != len(b.Stages[i].Workers) {
			return false
		}
		for j := range a.Stages[i].Workers {
			if a.Stages[i].Workers[j] != b.Stages[i].Workers[j] {
				return false
			}
		}
	}
	return true
}

func meanTail(xs []float64, n int) float64 {
	if len(xs) == 0 {
		return 0
	}
	if n > len(xs) {
		n = len(xs)
	}
	s := 0.0
	for _, v := range xs[len(xs)-n:] {
		s += v
	}
	return s / float64(n)
}
