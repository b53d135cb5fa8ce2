package autopipe

import (
	"context"
	"sync"

	"autopipe/internal/meta"
	"autopipe/internal/partition"
	"autopipe/internal/profile"
)

// OptimizeOptions tunes the hill-climb search.
type OptimizeOptions struct {
	// MaxRounds bounds the hill-climb (default 16).
	MaxRounds int
	// UseMerge extends the neighbourhood with stage merges/splits.
	UseMerge bool
	// Procs bounds parallel candidate scoring (<=0 selects GOMAXPROCS).
	// A batched round is split into at most Procs chunks, and only into
	// as many as its measured scoring cost pays for (see
	// scoreSet.chunks): cheap rounds score on the calling goroutine.
	Procs int
	// Stats, when non-nil, receives the search telemetry.
	Stats *SearchStats
	// History supplies the dynamic-metric window consumed by
	// history-aware predictors (net/hybrid); nil scores the all-zero
	// window. The search only reads it.
	History *meta.History
}

// OptimizePlan hill-climbs from an initial plan through the two-worker
// neighbourhood (plus in-flight variants), scoring candidates with the
// predictor on the observed profile, until no neighbour improves, the
// context is cancelled, or MaxRounds is reached. This is the offline
// form of AutoPipe's search — the piece that "enhances" other
// pipeline-parallel schemes (DAPPLE, Chimera, PipeDream-2BW) in the
// paper's Figure 13: the schedules keep their own execution semantics,
// only the partition is AutoPipe-optimised.
//
// Each round's neighbourhood is carved from a pair of bump-pointer
// arenas (the incumbent lives in the previous round's arena, so the two
// alternate) and scored through a scoreSet — batched when the predictor
// supports it (fanned out only when a round's measured cost pays for
// it), otherwise fanned across opts.Procs goroutines, with a plan-hash
// memo cache either way. The chosen plan is bit-identical at
// every procs setting and whether or not the predictor batches. The returned plan is
// always an independent heap copy; on cancellation it is the best plan
// found so far, together with the context's error.
func OptimizePlan(ctx context.Context, prof *profile.Profile, plan partition.Plan,
	miniBatch int, pred meta.Predictor, opts OptimizeOptions) (partition.Plan, error) {
	maxRounds := opts.MaxRounds
	if maxRounds < 1 {
		maxRounds = 16
	}
	// All per-call scratch — arenas, the score cache, the imbalance
	// table — is pooled across OptimizePlan calls so a steady stream of
	// searches allocates almost nothing and the GC (whose write
	// barriers tax the arena copies) stays idle.
	sc := optScratchPool.Get().(*optimizeScratch)
	defer sc.put()
	ss := &sc.ss
	ss.reset(ctx, pred, prof, miniBatch, opts.History, opts.Procs)
	defer func() {
		if opts.Stats != nil {
			opts.Stats.add(ss.stats)
		}
	}()
	imb := &sc.imb
	imb.rebuild(prof)
	cur := plan.Clone()
	var seed [1]partition.Plan
	seed[0] = cur
	curScore, err := ss.scores(seed[:])
	if err != nil {
		return cur, err
	}
	curSpeed := curScore[0]
	curImb := imb.of(cur)
	// Candidates are bump-allocated from candArena and recycled every
	// round; their untouched worker slices alias the incumbent's storage.
	// The incumbent itself ping-pongs between two arenas: each round's
	// winner is deep-copied out of candArena into the arena the previous
	// incumbent is NOT in, so the storage a round's candidates alias
	// stays live until those candidates are dead.
	cands := sc.cands[:0]
	for round := 0; round < maxRounds; round++ {
		ss.stats.Rounds++
		a := &sc.candArena
		a.Reset()
		ss.base = cur // delta-evaluation base for the batched path
		cands = cands[:0]
		if opts.UseMerge {
			cands = partition.AppendNeighborsWithMerge(cands, a, cur)
		} else {
			cands = partition.AppendNeighbors(cands, a, cur)
		}
		cands = partition.AppendInFlightVariants(cands, a, cur, 0)
		speeds, err := ss.scores(cands)
		if err != nil {
			sc.cands = cands
			return cur.Clone(), err
		}
		best := cur
		bestSpeed, bestImb := curSpeed, curImb
		improved := false
		// The reduction stays serial and in enumeration order, so the
		// chosen plan is exactly the serial search's choice.
		for i, q := range cands {
			s := speeds[i]
			better := s > bestSpeed*(1+1e-9)
			if !better && s < bestSpeed*(1-1e-9) {
				continue // cannot win on speed or plateau
			}
			qImb := imb.of(q)
			plateau := !better && qImb < bestImb*(1-1e-9)
			if better || plateau {
				best, bestSpeed, bestImb = q, s, qImb
				improved = true
			}
		}
		if !improved {
			break
		}
		// Deep-copy the winner into the off incumbent arena: best's
		// candArena storage is recycled next round, and the arena the
		// current incumbent occupies is still aliased by nothing after
		// this swap, so it can be recycled the round after.
		ca := &sc.curArenas[round&1]
		ca.Reset()
		cur, curSpeed, curImb = ca.Clone(best), bestSpeed, bestImb
	}
	sc.cands = cands
	// cur may reference arena storage; hand the caller an independent copy.
	return cur.Clone(), nil
}

// optimizeScratch bundles every reusable buffer one OptimizePlan call
// touches; a sync.Pool recycles them across calls.
type optimizeScratch struct {
	ss        scoreSet
	candArena partition.Arena
	curArenas [2]partition.Arena
	cands     []partition.Plan
	imb       imbalanceTable
}

var optScratchPool = sync.Pool{New: func() any { return new(optimizeScratch) }}

// put returns the scratch to the pool after dropping plan references so
// recycled scratch never pins a caller's profile or plan storage. Arena
// slabs and table rows are kept — reusing them is the point.
func (sc *optimizeScratch) put() {
	sc.ss.release()
	for i := range sc.cands {
		sc.cands[i] = partition.Plan{}
	}
	optScratchPool.Put(sc)
}
