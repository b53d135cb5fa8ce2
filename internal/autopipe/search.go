package autopipe

import (
	"context"
	"reflect"
	"runtime"
	"sync/atomic"
	"time"

	"autopipe/internal/meta"
	"autopipe/internal/partition"
	"autopipe/internal/profile"
	"autopipe/internal/work"
)

// SearchStats aggregates candidate-search telemetry: how many plans the
// predictor actually scored, how many scores the memo cache served, and
// where the time went. WallSeconds is elapsed search time; ScoreSeconds
// sums the per-candidate predictor time across workers, so
// ScoreSeconds/WallSeconds estimates the realised parallel speedup.
type SearchStats struct {
	Candidates   int     `json:"candidates"`
	CacheHits    int     `json:"cache_hits"`
	Rounds       int     `json:"rounds"`
	WallSeconds  float64 `json:"wall_seconds"`
	ScoreSeconds float64 `json:"score_seconds"`
}

// add folds another stats record into s.
func (s *SearchStats) add(o SearchStats) {
	s.Candidates += o.Candidates
	s.CacheHits += o.CacheHits
	s.Rounds += o.Rounds
	s.WallSeconds += o.WallSeconds
	s.ScoreSeconds += o.ScoreSeconds
}

// Speedup estimates the realised parallel speedup of the search
// (aggregate predictor time over elapsed time); 0 when nothing ran.
func (s SearchStats) Speedup() float64 {
	if s.WallSeconds <= 0 {
		return 0
	}
	return s.ScoreSeconds / s.WallSeconds
}

// HitRate returns the fraction of score lookups the memo cache served
// without touching the predictor; 0 when nothing was looked up.
func (s SearchStats) HitRate() float64 {
	total := s.Candidates + s.CacheHits
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// scoreSet evaluates candidate partitions against one observed profile:
// batched or bounded-parallel scoring plus a plan-hash memo cache, so
// repeated hill-climb rounds never re-score an already-seen partition.
// Scoring through a scoreSet is bit-identical to calling the predictor
// serially in candidate order: each candidate is an independent pure
// evaluation, results land at their input index, and the batched paths
// carry a strict per-row bit-identity contract (meta.BatchPredictor) —
// so neither procs, nor batching, nor scheduling affects any returned
// value.
//
// The memo cache key is partition.Plan.Hash64 (64-bit FNV-1a over the
// canonical plan encoding); with the ≤10⁴ live entries of a search the
// collision probability is ~1e-12 per search.
type scoreSet struct {
	ctx  context.Context
	pred meta.Predictor
	// batch is pred's batched scoring path, nil when absent;
	// when set, each round's cache-miss set is scored by one
	// PredictSpeedBatch call, or by one per contiguous chunk when the
	// round is costly enough to fan out (see chunks), amortising the
	// candidate-independent work (LSTM history pass, analytic base-plan
	// terms) across the chunk.
	batch meta.BatchPredictor
	prof  *profile.Profile
	mb    int
	h     *meta.History
	procs int
	cache map[uint64]float64
	stats SearchStats
	// base is the plan the current candidate set was enumerated from
	// (the search incumbent), forwarded to the batched path as its
	// delta-evaluation base hint. The caller refreshes it whenever the
	// incumbent moves; a zero Plan is valid (implementations fall back
	// to the first scored plan).
	base partition.Plan
	// nsPerCand is the batched path's last measured scoring time per
	// candidate, 0 until measured. It survives reset while the
	// predictor's type stays costType: cost per candidate is a property
	// of the kind of predictor far more than of its parameters.
	nsPerCand float64
	costType  reflect.Type

	// Reusable buffers: the slice scores returns is owned by the
	// scoreSet and valid only until its next scores call.
	out       []float64
	keys      []uint64
	miss      []int
	missPlans []partition.Plan
	missOut   []float64
}

// newScoreSet builds a scorer. Predictors that are not concurrency-safe
// (see meta.ConcurrencySafe) are scored on one goroutine regardless of
// procs; results are identical either way, only the wall clock differs.
// All built-in predictors — analytic, net and hybrid — are safe and
// additionally advertise meta.BatchPredictor, so scoring dispatches to
// the batched path; other predictors fan out across procs goroutines.
func newScoreSet(ctx context.Context, pred meta.Predictor, prof *profile.Profile,
	miniBatch int, h *meta.History, procs int) *scoreSet {
	s := &scoreSet{}
	s.reset(ctx, pred, prof, miniBatch, h, procs)
	return s
}

// reset rebinds a (possibly recycled) scoreSet to a new search: the
// memo cache is emptied and the stats zeroed, while the cache map and
// scoring buffers keep their capacity for reuse.
func (s *scoreSet) reset(ctx context.Context, pred meta.Predictor, prof *profile.Profile,
	miniBatch int, h *meta.History, procs int) {
	if ctx == nil {
		ctx = context.Background()
	}
	if pred == nil {
		pred = meta.AnalyticPredictor{}
	}
	procs = work.Procs(procs)
	if !meta.ParallelSafe(pred) {
		procs = 1
	}
	s.ctx, s.pred, s.prof, s.mb, s.h, s.procs = ctx, pred, prof, miniBatch, h, procs
	s.base = partition.Plan{}
	s.stats = SearchStats{}
	if s.cache == nil {
		s.cache = map[uint64]float64{}
	} else {
		clear(s.cache)
	}
	s.batch, _ = meta.BatchCapable(pred)
	if t := reflect.TypeOf(pred); t != s.costType {
		s.costType, s.nsPerCand = t, 0
	}
}

// release drops every reference a recycled scoreSet would otherwise pin
// (profile, history, context, base-plan storage); capacities survive.
func (s *scoreSet) release() {
	s.ctx, s.pred, s.batch, s.prof, s.h = nil, nil, nil, nil, nil
	s.base = partition.Plan{}
	for i := range s.missPlans {
		s.missPlans[i] = partition.Plan{}
	}
}

// scores returns the predicted speed of every plan, in input order.
// Cached plans are served without touching the predictor. On context
// cancellation it returns the context's error. The returned slice is
// reused by the next scores call.
func (s *scoreSet) scores(plans []partition.Plan) ([]float64, error) {
	wallStart := time.Now()
	if cap(s.out) < len(plans) {
		s.out = make([]float64, len(plans))
		s.keys = make([]uint64, len(plans))
	}
	out := s.out[:len(plans)]
	keys := s.keys[:len(plans)]
	miss := s.miss[:0]
	for i, p := range plans {
		keys[i] = p.Hash64()
		if v, ok := s.cache[keys[i]]; ok {
			out[i] = v
			s.stats.CacheHits++
		} else {
			miss = append(miss, i)
		}
	}
	s.miss = miss

	var scoreNanos int64
	var err error
	if s.batch != nil && len(miss) > 1 {
		scoreNanos, err = s.scoreBatched(plans, out)
	} else {
		scoreNanos, err = s.scoreFanOut(plans, out)
	}
	s.stats.WallSeconds += time.Since(wallStart).Seconds()
	s.stats.ScoreSeconds += time.Duration(scoreNanos).Seconds()
	if err != nil {
		return nil, err
	}
	for _, i := range miss {
		s.cache[keys[i]] = out[i]
	}
	s.stats.Candidates += len(miss)
	return out, nil
}

// fanOutBudget is the scoring time each chunk of a batched round must
// carry before the round is split across goroutines. It sits well above
// the cost of handing a chunk to a goroutine woken from idle (40–50 µs
// measured on a 2-core host), so analytic rounds (tens of µs) score
// inline on the caller while hybrid rounds (0.4–1.4 ms) still fan out.
const fanOutBudget = 200 * time.Microsecond

// chunks returns how many contiguous chunks a batched round of misses
// candidates is split into: one per fanOutBudget of measured scoring
// time, capped by procs and by the parallelism the runtime can realise
// (each chunk re-pays the candidate-independent batch work). A
// predictor not measured yet scores inline.
func (s *scoreSet) chunks(misses int) int {
	k := min(s.procs, runtime.GOMAXPROCS(0), misses)
	return min(k, int(float64(misses)*s.nsPerCand/float64(fanOutBudget)))
}

// scoreBatched scores the miss set through the predictor's batched path:
// the missed plans are gathered into one contiguous slice and scored by
// one PredictSpeedBatch call on the caller or, for a costly round, by
// one call per chunk on up to chunks goroutines. Chunking affects wall clock only — every row's score is
// bit-identical to serial PredictSpeed by the BatchPredictor contract.
func (s *scoreSet) scoreBatched(plans []partition.Plan, out []float64) (int64, error) {
	miss := s.miss
	if cap(s.missPlans) < len(miss) {
		s.missPlans = make([]partition.Plan, len(miss))
		s.missOut = make([]float64, len(miss))
	}
	mp := s.missPlans[:len(miss)]
	mo := s.missOut[:len(miss)]
	for j, i := range miss {
		mp[j] = plans[i]
	}
	var scoreNanos int64
	if nch := s.chunks(len(miss)); nch <= 1 {
		if err := s.ctx.Err(); err != nil {
			return 0, err
		}
		t0 := time.Now()
		s.batch.PredictSpeedBatch(s.prof, s.base, mp, s.mb, s.h, mo)
		scoreNanos = int64(time.Since(t0))
	} else {
		var total atomic.Int64
		err := work.Map(s.ctx, nch, nch, func(_ context.Context, c int) error {
			lo := c * len(miss) / nch
			hi := (c + 1) * len(miss) / nch
			t0 := time.Now()
			s.batch.PredictSpeedBatch(s.prof, s.base, mp[lo:hi], s.mb, s.h, mo[lo:hi])
			total.Add(int64(time.Since(t0)))
			return nil
		})
		if err != nil {
			return total.Load(), err
		}
		scoreNanos = total.Load()
	}
	s.nsPerCand = float64(scoreNanos) / float64(len(miss))
	for j, i := range miss {
		out[i] = mo[j]
	}
	return scoreNanos, nil
}

// scoreFanOut is the per-candidate fallback: one PredictSpeed call per
// missed plan, fanned across procs goroutines.
func (s *scoreSet) scoreFanOut(plans []partition.Plan, out []float64) (int64, error) {
	miss := s.miss
	var scoreNanos atomic.Int64
	err := work.Map(s.ctx, len(miss), s.procs, func(_ context.Context, j int) error {
		i := miss[j]
		t0 := time.Now()
		out[i] = s.pred.PredictSpeed(s.prof, plans[i], s.mb, s.h)
		scoreNanos.Add(int64(time.Since(t0)))
		return nil
	})
	return scoreNanos.Load(), err
}

// imbalanceTable serves loadImbalance queries from per-worker prefix
// sums of layer compute time, making each query O(workers) instead of
// O(workers × layers). The table is built once per observed profile;
// neighbours differ in at most two workers' ranges but are whole-plan
// queries here — the prefix sums are what remove the per-layer rescan.
type imbalanceTable struct {
	// prefix[w][l] = Σ_{j<l} FP[w][j]+BP[w][j]
	prefix [][]float64
}

func newImbalanceTable(prof *profile.Profile) *imbalanceTable {
	t := &imbalanceTable{}
	t.rebuild(prof)
	return t
}

// rebuild recomputes the prefix sums for a profile, reusing the
// table's row storage when capacities allow.
func (t *imbalanceTable) rebuild(prof *profile.Profile) {
	if cap(t.prefix) < prof.N {
		t.prefix = make([][]float64, prof.N)
	}
	t.prefix = t.prefix[:prof.N]
	for w := 0; w < prof.N; w++ {
		row := t.prefix[w]
		if cap(row) < prof.L+1 {
			row = make([]float64, prof.L+1)
		}
		row = row[:prof.L+1]
		row[0] = 0
		for l := 0; l < prof.L; l++ {
			row[l+1] = row[l] + prof.FP[w][l] + prof.BP[w][l]
		}
		t.prefix[w] = row
	}
}

// of returns the plateau tie-breaker for hill-climbing: the sum of
// squared per-worker per-batch compute times. The pipeline bottleneck
// (what the predictor scores) is a max — moving work off a non-critical
// overloaded worker doesn't change it, yet such moves are required
// stepping stones towards plans that do. Preferring lower imbalance at
// equal predicted speed lets the search walk those plateaus without
// cycling (the metric strictly decreases).
func (t *imbalanceTable) of(plan partition.Plan) float64 {
	total := 0.0
	for _, s := range plan.Stages {
		m := float64(len(s.Workers))
		for _, w := range s.Workers {
			v := (t.prefix[w][s.End] - t.prefix[w][s.Start]) / m // replicas split the batch stream
			total += v * v
		}
	}
	return total
}
