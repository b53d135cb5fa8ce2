package partition

import (
	"math"
)

// PipeDream runs PipeDream's dynamic-programming work partitioner
// (Narayanan et al., SOSP'19 §3.1) against the given cost model and
// worker pool. It returns the plan minimising the bottleneck stage time:
// a contiguous layer split into stages, a replica count per stage, and
// the in-flight mini-batch count NOAM = ⌈N / replicas(stage 0)⌉.
//
// Complexity O(L²·N²); the paper reports seconds-scale runtimes for the
// real system and our Figure 12 bench measures this implementation.
func PipeDream(cm *CostModel, workers []int) Plan {
	L := len(cm.LayerTime)
	N := len(workers)
	if N == 0 || L == 0 {
		return Plan{}
	}
	// best[j*W+m]: minimal bottleneck using exactly m workers for the
	// first j layers. splitI/splitM at the same index record (i, mPrime):
	// the last stage is layers [i,j) on mPrime workers.
	const inf = math.MaxFloat64
	W := N + 1
	best := make([]float64, (L+1)*W)
	splitI := make([]int, (L+1)*W)
	splitM := make([]int, (L+1)*W)
	for k := range best {
		best[k] = inf
	}
	best[0] = 0
	// Prefix sums to evaluate stage costs in O(1), and the boundary
	// transfer time in front of each possible stage start i ≥ 1.
	prefT := make([]float64, L+1)
	prefW := make([]int64, L+1)
	bound := make([]float64, L)
	for l := 0; l < L; l++ {
		prefT[l+1] = prefT[l] + cm.LayerTime[l]
		prefW[l+1] = prefW[l] + cm.ParamBytes[l]
		if l > 0 {
			bound[l] = cm.boundaryCommTime(l - 1)
		}
	}
	// stage[i*W+mp] is the time of stage [i,j) on mp replicas for the
	// current j; it does not depend on m, so it is filled once per j.
	stage := make([]float64, L*W)
	for j := 1; j <= L; j++ {
		for i := 0; i < j; i++ {
			t := prefT[j] - prefT[i]
			w := prefW[j] - prefW[i]
			row := stage[i*W : i*W+W]
			for mp := 1; mp <= N; mp++ {
				sync := 0.0
				if mp > 1 {
					sync = 4 * float64(mp-1) / float64(mp) * float64(w*8) / cm.Bandwidth
				}
				row[mp] = t/float64(mp) + sync
			}
		}
		for m := 1; m <= N; m++ {
			at := j*W + m
			for i := 0; i < j; i++ {
				prevRow := best[i*W : i*W+W]
				row := stage[i*W : i*W+W]
				ct := bound[i]
				for mp := 1; mp <= m; mp++ {
					prev := prevRow[m-mp]
					if prev == inf {
						continue
					}
					cand := prev
					if i > 0 && ct > cand {
						cand = ct
					}
					if st := row[mp]; st > cand {
						cand = st
					}
					if cand < best[at] {
						best[at] = cand
						splitI[at] = i
						splitM[at] = mp
					}
				}
			}
		}
	}
	// The best plan may use fewer than N workers (adding replicas can
	// only add sync cost for some models).
	bestM, bestVal := 1, inf
	for m := 1; m <= N; m++ {
		if best[L*W+m] < bestVal {
			bestVal = best[L*W+m]
			bestM = m
		}
	}
	// Reconstruct stages back to front.
	var rev []Stage
	j, m := L, bestM
	for j > 0 {
		i, mp := splitI[j*W+m], splitM[j*W+m]
		rev = append(rev, Stage{Start: i, End: j, Workers: make([]int, mp)})
		j, m = i, m-mp
	}
	// Assign concrete worker ids front to back in pool order.
	plan := Plan{}
	for s := len(rev) - 1; s >= 0; s-- {
		plan.Stages = append(plan.Stages, rev[s])
	}
	next := 0
	for si := range plan.Stages {
		ws := plan.Stages[si].Workers
		for k := range ws {
			ws[k] = workers[next]
			next++
		}
	}
	plan.InFlight = noam(len(plan.AllWorkers()), plan.Stages[0].Replicas())
	return plan
}

// noam is PipeDream's optimal in-flight mini-batch count:
// ⌈ #workers / #replicas of the input stage ⌉.
func noam(totalWorkers, inputReplicas int) int {
	if inputReplicas <= 0 {
		return 1
	}
	n := (totalWorkers + inputReplicas - 1) / inputReplicas
	if n < 1 {
		n = 1
	}
	return n
}

// EvenSplit returns the first-category baseline partition (Megatron-LM /
// PipeDream-2BW style): layers divided into len(workers) equal-count
// stages, one worker each. If there are more workers than layers, the
// stage count is capped at the layer count.
func EvenSplit(numLayers int, workers []int) Plan {
	n := len(workers)
	if n > numLayers {
		n = numLayers
	}
	var p Plan
	for s := 0; s < n; s++ {
		lo := s * numLayers / n
		hi := (s + 1) * numLayers / n
		p.Stages = append(p.Stages, Stage{Start: lo, End: hi, Workers: []int{workers[s]}})
	}
	p.InFlight = noam(n, 1)
	return p
}

// SingleStage returns the vanilla data-parallel "plan": every worker
// replicates the whole model (the paper's baseline ML-framework mode).
func SingleStage(numLayers int, workers []int) Plan {
	return Plan{
		Stages:   []Stage{{Start: 0, End: numLayers, Workers: append([]int(nil), workers...)}},
		InFlight: 1,
	}
}

// ModelParallel returns naive model parallelism: EvenSplit but with a
// single mini-batch in flight (Figure 1b).
func ModelParallel(numLayers int, workers []int) Plan {
	p := EvenSplit(numLayers, workers)
	p.InFlight = 1
	return p
}

// Exhaustive enumerates every contiguous partition of numLayers layers
// into stages with every worker allocation (workers assigned in pool
// order) and returns the plan with minimal cost-model bottleneck. It is
// exponential — only for small test instances validating the DP.
func Exhaustive(cm *CostModel, workers []int) Plan {
	L := len(cm.LayerTime)
	N := len(workers)
	bestVal := math.MaxFloat64
	var bestPlan Plan
	// Recurse over stage boundaries and replica counts.
	var rec func(layer, usedWorkers int, stages []Stage)
	rec = func(layer, usedWorkers int, stages []Stage) {
		if layer == L {
			if len(stages) == 0 {
				return
			}
			p := Plan{Stages: append([]Stage(nil), stages...)}
			next := 0
			for i := range p.Stages {
				ws := make([]int, cap(p.Stages[i].Workers))
				copy(ws, workers[next:next+len(ws)])
				p.Stages[i].Workers = ws
				next += len(ws)
			}
			p.InFlight = noam(usedWorkers, len(p.Stages[0].Workers))
			if v := cm.Bottleneck(p); v < bestVal {
				bestVal = v
				bestPlan = p.Clone()
			}
			return
		}
		for end := layer + 1; end <= L; end++ {
			for m := 1; m <= N-usedWorkers; m++ {
				stages = append(stages, Stage{Start: layer, End: end, Workers: make([]int, 0, m)})
				rec(end, usedWorkers+m, stages)
				stages = stages[:len(stages)-1]
			}
		}
	}
	rec(0, 0, nil)
	return bestPlan
}
