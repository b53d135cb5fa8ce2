package pipeline

// GPU memory accounting for the asynchronous engine.
//
// PipeDream's weight stashing trades memory for consistency: every
// in-flight mini-batch pins the weight version its forward pass used.
// PipeDream-2BW's gradient coalescing (SyncEvery > 1) commits a new
// version only every m batches, so at most two versions are ever live —
// the "double-buffered weights" of the paper's related work. This file
// measures both effects, per worker, during execution.

import "slices"

// memoryUsage returns the replica's current weight + activation memory.
func (r *replica) memoryUsage(e *AsyncEngine) int64 {
	params, acts := e.totals(r.stage)
	// Distinct stashed weight versions plus the committed one, counted
	// in the engine's reused scratch slice.
	versions := append(e.versions[:0], r.version)
	for _, s := range r.stash {
		if !slices.Contains(versions, s.version) {
			versions = append(versions, s.version)
		}
	}
	e.versions = versions
	// One activation buffer per in-flight batch on this replica.
	return params*int64(len(versions)) + acts*int64(len(r.stash))
}

func (e *AsyncEngine) noteMemory(r *replica) {
	if m := r.memoryUsage(e); m > r.memPeak {
		r.memPeak = m
	}
}

// PeakMemoryBytes returns each worker's peak weight+activation memory
// observed so far.
func (e *AsyncEngine) PeakMemoryBytes() map[int]int64 {
	out := map[int]int64{}
	for w, r := range e.byWorker {
		out[w] = r.memPeak
	}
	return out
}

// MaxPeakMemoryBytes returns the largest per-worker peak — the figure a
// capacity planner compares against GPU memory.
func (e *AsyncEngine) MaxPeakMemoryBytes() int64 {
	var max int64
	for _, r := range e.byWorker {
		if r.memPeak > max {
			max = r.memPeak
		}
	}
	return max
}
