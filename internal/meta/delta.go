// Incremental (delta-cost) analytic scoring.
//
// A hill-climb round scores the whole two-worker swap/merge
// neighbourhood of one incumbent plan. Every candidate differs from the
// incumbent in at most two stages, yet the analytic model re-derives all
// W workers' compute terms and all link loads from scratch — O(W·L) per
// candidate (O(W·S) with prefix sums). The evaluator below exploits the
// neighbourhood structure: it decomposes the analytic model into
// per-stage and per-stage-boundary *terms* computed once from the base
// plan, aligns each candidate against the base, and recomputes terms
// only for the (at most two) stages and (at most three) boundaries that
// actually changed, then recombines.
//
// Bit-identity contract: recombination applies the identical
// floating-point increments in the identical order as
// AnalyticPredictor.predict — per-stage terms are the exact values the
// full path adds into its accumulators, and the apply loop mirrors its
// stage-order interleaving — so Evaluator.PredictSpeed equals
// AnalyticPredictor.PredictSpeed bit-for-bit for every plan, neighbour
// or not. delta_test.go pins this over randomized neighbourhoods,
// schemes and SyncEvery settings.
package meta

import (
	"math"

	"autopipe/internal/netsim"
	"autopipe/internal/partition"
	"autopipe/internal/profile"
)

// inc is one accumulator increment: v added to slot idx (a worker index
// for compute terms, a server index for link terms).
type inc struct {
	idx int
	v   float64
}

// stageTerms caches everything one stage contributes to the analytic
// model independent of the rest of the plan: per-worker compute
// increments, the stage's mean compute time (latency contribution),
// and — for replicated stages — gradient-sync link increments plus the
// serial sync time.
type stageTerms struct {
	start, end int
	workers    []int // evaluator-owned copy: match identity
	compute    []inc
	stageMean  float64
	hasSync    bool
	up, down   []inc
	serial     float64
}

// boundaryTerms caches what one adjacent stage pair contributes:
// activation/gradient link increments and the boundary's round-trip
// latency.
type boundaryTerms struct {
	up, down []inc
	latency  float64
}

// Evaluator scores plans against one (profile, base plan) pair with
// incremental term reuse. It is NOT safe for concurrent use; concurrent
// scoring uses one Evaluator per goroutine (see AnalyticPredictor's
// evaluator pool).
type Evaluator struct {
	ap AnalyticPredictor
	sc analyticScratch // profile tables + recombination accumulators

	base       []stageTerms
	baseBounds []boundaryTerms
	baseLen    int
	// Prefix accumulator snapshots over the base plan: row k of each
	// flat array is the exact accumulator state after the full path has
	// applied base stages 0..k-1 and boundaries 0..k-2 — the state right
	// before boundary (k-1,k). A candidate whose first divergence from
	// the base is at stage k restores row k (a handful of memmoves) and
	// resumes at that boundary, instead of re-accumulating the whole
	// prefix term by term. Restoring copied floats is bit-identical to
	// re-adding them in order, so the contract above is untouched.
	snapW, snapS int // row strides: workers, servers
	snapCompute  []float64
	snapUp       []float64
	snapDown     []float64
	snapLat      []float64
	snapSerial   []float64
	// Rebase memo: pooled evaluators are often handed the same
	// (profile, base, config) on consecutive calls; rebuilding the term
	// caches then is pure waste. baseHash identifying the base by its
	// 64-bit plan hash carries the same negligible collision exposure as
	// the search memo cache.
	baseInit bool
	baseHash uint64
	baseCfg  AnalyticPredictor

	// Per-call scratch: term resolution for the candidate's stages and
	// fresh terms for unmatched stages/boundaries.
	terms       []*stageTerms
	baseIdx     []int
	freshStages []stageTerms
	freshBounds []boundaryTerms

	// pad keeps concurrently pooled evaluators out of each other's
	// cache lines (see the predictor pool notes in predictor.go).
	_ [64]byte
}

// NewEvaluator returns an incremental evaluator for this predictor
// configuration. Call Rebase before PredictSpeed.
func (ap AnalyticPredictor) NewEvaluator() *Evaluator {
	return &Evaluator{ap: ap}
}

// Rebase binds the evaluator to a profile and base plan, (re)building
// the per-stage and per-boundary term caches. O(S·W) — the cost of one
// full evaluation — paid once per neighbourhood instead of per
// candidate.
func (ev *Evaluator) Rebase(p *profile.Profile, base partition.Plan) {
	h := base.Hash64()
	bound := ev.sc.boundTo(p)
	if ev.baseInit && bound && ev.baseHash == h && ev.baseCfg == ev.ap {
		return
	}
	if !bound {
		ev.sc.bind(p)
	}
	ev.baseInit, ev.baseHash, ev.baseCfg = true, h, ev.ap
	ev.baseLen = len(base.Stages)
	if cap(ev.base) < ev.baseLen {
		ev.base = make([]stageTerms, ev.baseLen)
		ev.baseBounds = make([]boundaryTerms, ev.baseLen)
	}
	ev.base = ev.base[:ev.baseLen]
	ev.baseBounds = ev.baseBounds[:ev.baseLen]
	for i, s := range base.Stages {
		ev.stageTermsOf(&ev.base[i], s)
		if i+1 < len(base.Stages) {
			ev.boundaryTermsOf(&ev.baseBounds[i], s, base.Stages[i+1])
		}
	}

	// Build the prefix snapshots by replaying the recombination loop
	// over the base itself, cutting a row before each boundary. The
	// additions happen in exactly the full path's order (stage 0,
	// boundary 0, stage 1, boundary 1, ...), only the bookkeeping points
	// differ.
	sc := &ev.sc
	W, S := len(sc.compute), len(sc.up)
	ev.snapW, ev.snapS = W, S
	rows := ev.baseLen + 1
	if cap(ev.snapCompute) < rows*W {
		ev.snapCompute = make([]float64, rows*W)
	}
	if cap(ev.snapUp) < rows*S {
		ev.snapUp = make([]float64, rows*S)
		ev.snapDown = make([]float64, rows*S)
	}
	if cap(ev.snapLat) < rows {
		ev.snapLat = make([]float64, rows)
		ev.snapSerial = make([]float64, rows)
	}
	ev.snapCompute = ev.snapCompute[:rows*W]
	ev.snapUp, ev.snapDown = ev.snapUp[:rows*S], ev.snapDown[:rows*S]
	ev.snapLat, ev.snapSerial = ev.snapLat[:rows], ev.snapSerial[:rows]
	for i := range sc.compute {
		sc.compute[i] = 0
	}
	for i := range sc.up {
		sc.up[i], sc.down[i] = 0, 0
	}
	latency, maxSerial := 0.0, 0.0
	copy(ev.snapCompute[:W], sc.compute)
	copy(ev.snapUp[:S], sc.up)
	copy(ev.snapDown[:S], sc.down)
	ev.snapLat[0], ev.snapSerial[0] = 0, 0
	for i := 0; i < ev.baseLen; i++ {
		if i > 0 {
			bt := &ev.baseBounds[i-1]
			for _, u := range bt.up {
				sc.up[u.idx] += u.v
			}
			for _, d := range bt.down {
				sc.down[d.idx] += d.v
			}
			latency += bt.latency
		}
		st := &ev.base[i]
		for _, c := range st.compute {
			sc.compute[c.idx] += c.v
		}
		latency += st.stageMean
		if st.hasSync {
			for _, u := range st.up {
				sc.up[u.idx] += u.v
			}
			for _, d := range st.down {
				sc.down[d.idx] += d.v
			}
			if st.serial > maxSerial {
				maxSerial = st.serial
			}
		}
		row := i + 1
		copy(ev.snapCompute[row*W:(row+1)*W], sc.compute)
		copy(ev.snapUp[row*S:(row+1)*S], sc.up)
		copy(ev.snapDown[row*S:(row+1)*S], sc.down)
		ev.snapLat[row], ev.snapSerial[row] = latency, maxSerial
	}
}

// stageTermsOf fills dst with stage s's contribution terms. The values
// appended are exactly the floats AnalyticPredictor.predict adds into
// its accumulators for this stage, computed by the same expressions.
func (ev *Evaluator) stageTermsOf(dst *stageTerms, s partition.Stage) {
	p := ev.sc.prof
	syncEvery := ev.ap.SyncEvery
	if syncEvery < 1 {
		syncEvery = 1
	}
	dst.start, dst.end = s.Start, s.End
	dst.workers = append(dst.workers[:0], s.Workers...)
	dst.compute = dst.compute[:0]
	dst.up, dst.down = dst.up[:0], dst.down[:0]
	dst.serial = 0

	m := float64(len(s.Workers))
	stageMean := 0.0
	for _, w := range s.Workers {
		t := ev.sc.prefix[w][s.End] - ev.sc.prefix[w][s.Start]
		dst.compute = append(dst.compute, inc{w, t / m})
		stageMean += t
	}
	stageMean /= m
	dst.stageMean = stageMean

	dst.hasSync = len(s.Workers) > 1
	if !dst.hasSync {
		return
	}
	bytes := ev.sc.paramPrefix[s.End] - ev.sc.paramPrefix[s.Start]
	V := float64(bytes*8) / float64(syncEvery)
	minBw := math.Inf(1)
	for _, w := range s.Workers {
		if p.Bandwidth[w] < minBw {
			minBw = p.Bandwidth[w]
		}
	}
	if ev.ap.Scheme == netsim.RingAllReduce {
		per := 2 * (m - 1) / m * V
		for k, w := range s.Workers {
			next := s.Workers[(k+1)%len(s.Workers)]
			if ev.sc.server[w] != ev.sc.server[next] {
				dst.up = append(dst.up, inc{ev.sc.server[w], per})
				dst.down = append(dst.down, inc{ev.sc.server[next], per})
			}
		}
		dst.serial = 2 * (m - 1) / m * V / minBw
	} else {
		ps := s.Workers[0]
		remote := 0.0
		for _, w := range s.Workers[1:] {
			if ev.sc.server[w] != ev.sc.server[ps] {
				dst.up = append(dst.up, inc{ev.sc.server[w], V})
				dst.down = append(dst.down, inc{ev.sc.server[w], V})
				remote++
			}
		}
		dst.up = append(dst.up, inc{ev.sc.server[ps], remote * V})
		dst.down = append(dst.down, inc{ev.sc.server[ps], remote * V})
		dst.serial = 2 * remote * V / minBw
	}
}

// boundaryTermsOf fills dst with the (s, next) boundary's contribution
// terms, again value-identical to the full path's increments.
func (ev *Evaluator) boundaryTermsOf(dst *boundaryTerms, s, next partition.Stage) {
	p := ev.sc.prof
	dst.up, dst.down = dst.up[:0], dst.down[:0]
	bits := float64(p.OutBytes[s.End-1] * 8)
	pairs := 0.0
	cross := 0.0
	minBw := math.Inf(1)
	for _, a := range s.Workers {
		for _, b := range next.Workers {
			pairs++
			if ev.sc.server[a] != ev.sc.server[b] {
				cross++
			}
			bw := math.Min(p.Bandwidth[a], p.Bandwidth[b])
			if bw < minBw {
				minBw = bw
			}
		}
	}
	frac := cross / pairs
	for _, a := range s.Workers {
		v := bits * frac / float64(len(s.Workers))
		dst.up = append(dst.up, inc{ev.sc.server[a], v})
		dst.down = append(dst.down, inc{ev.sc.server[a], v})
	}
	for _, b := range next.Workers {
		v := bits * frac / float64(len(next.Workers))
		dst.down = append(dst.down, inc{ev.sc.server[b], v})
		dst.up = append(dst.up, inc{ev.sc.server[b], v})
	}
	dst.latency = 2 * bits / minBw
}

// sameStage reports whether a candidate stage is identical to a cached
// base stage (bounds and worker list).
func (st *stageTerms) sameStage(s partition.Stage) bool {
	if st.start != s.Start || st.end != s.End || len(st.workers) != len(s.Workers) {
		return false
	}
	for i, w := range st.workers {
		if w != s.Workers[i] {
			return false
		}
	}
	return true
}

// PredictSpeed scores one plan against the bound profile, reusing base
// terms for every stage the plan shares with the base. Bit-identical to
// AnalyticPredictor.PredictSpeed on the same (profile, plan, miniBatch).
func (ev *Evaluator) PredictSpeed(plan partition.Plan, miniBatch int) float64 {
	if len(plan.Stages) == 0 {
		return 0
	}
	sc := &ev.sc

	// Pass 1: resolve each candidate stage to cached base terms (by a
	// monotone two-pointer alignment over the shared layer axis) or to
	// freshly computed terms.
	nS := len(plan.Stages)
	if cap(ev.terms) < nS {
		ev.terms = make([]*stageTerms, nS)
		ev.baseIdx = make([]int, nS)
	}
	ev.terms = ev.terms[:nS]
	ev.baseIdx = ev.baseIdx[:nS]
	for len(ev.freshStages) < nS {
		ev.freshStages = append(ev.freshStages, stageTerms{})
	}
	fresh := 0
	bi := 0
	pfx := 0 // length of the run of stages identical to the base prefix
	for i, s := range plan.Stages {
		for bi < ev.baseLen && ev.base[bi].start < s.Start {
			bi++
		}
		if bi < ev.baseLen && ev.base[bi].sameStage(s) {
			ev.terms[i] = &ev.base[bi]
			ev.baseIdx[i] = bi
			if bi == i && pfx == i {
				pfx = i + 1
			}
		} else {
			t := &ev.freshStages[fresh]
			fresh++
			ev.stageTermsOf(t, s)
			ev.terms[i] = t
			ev.baseIdx[i] = -1
		}
	}

	// Pass 2: recombine in the exact accumulation order of the full
	// path — per stage: compute, latency, sync, then the boundary to
	// the next stage. The shared prefix is restored from its Rebase
	// snapshot (row pfx: stages 0..pfx-1 and boundaries 0..pfx-2
	// applied), resuming at the boundary after stage pfx-1 — the first
	// increment a divergent stage pfx can alter.
	var maxSerial, latency float64
	start := 0
	if pfx > 0 && ev.snapW == len(sc.compute) && ev.snapS == len(sc.up) {
		W, S := ev.snapW, ev.snapS
		copy(sc.compute, ev.snapCompute[pfx*W:(pfx+1)*W])
		copy(sc.up, ev.snapUp[pfx*S:(pfx+1)*S])
		copy(sc.down, ev.snapDown[pfx*S:(pfx+1)*S])
		latency, maxSerial = ev.snapLat[pfx], ev.snapSerial[pfx]
		start = pfx
	} else {
		for i := range sc.compute {
			sc.compute[i] = 0
		}
		for i := range sc.up {
			sc.up[i], sc.down[i] = 0, 0
		}
	}
	for len(ev.freshBounds) < nS {
		ev.freshBounds = append(ev.freshBounds, boundaryTerms{})
	}
	freshB := 0
	for i := start - 1; i < nS; i++ {
		if i >= start { // stage start-1's terms are inside the snapshot
			st := ev.terms[i]
			for _, c := range st.compute {
				sc.compute[c.idx] += c.v
			}
			latency += st.stageMean
			if st.hasSync {
				for _, u := range st.up {
					sc.up[u.idx] += u.v
				}
				for _, d := range st.down {
					sc.down[d.idx] += d.v
				}
				if st.serial > maxSerial {
					maxSerial = st.serial
				}
			}
		}
		if i >= 0 && i < nS-1 {
			var bt *boundaryTerms
			if k := ev.baseIdx[i]; k >= 0 && ev.baseIdx[i+1] == k+1 {
				bt = &ev.baseBounds[k]
			} else {
				bt = &ev.freshBounds[freshB]
				freshB++
				ev.boundaryTermsOf(bt, plan.Stages[i], plan.Stages[i+1])
			}
			for _, u := range bt.up {
				sc.up[u.idx] += u.v
			}
			for _, d := range bt.down {
				sc.down[d.idx] += d.v
			}
			latency += bt.latency
		}
	}

	// Bottleneck across all resources — verbatim the full path's tail.
	bottleneck := maxSerial
	for _, t := range sc.compute {
		if t > bottleneck {
			bottleneck = t
		}
	}
	for srv, bits := range sc.up {
		if bw := sc.srvBw[srv]; bw > 0 {
			if t := bits / bw; t > bottleneck {
				bottleneck = t
			}
		}
	}
	for srv, bits := range sc.down {
		if bw := sc.srvBw[srv]; bw > 0 {
			if t := bits / bw; t > bottleneck {
				bottleneck = t
			}
		}
	}
	if bottleneck <= 0 {
		return 0
	}
	tp := float64(miniBatch) / bottleneck
	if latency > 0 && plan.InFlight > 0 {
		fill := float64(plan.InFlight) * float64(miniBatch) / latency
		if fill < tp {
			tp = fill
		}
	}
	return tp
}
