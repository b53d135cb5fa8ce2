// Package partition defines the work-partition representation shared by
// the whole system and the planners that produce partitions: PipeDream's
// dynamic-programming planner (the baseline AutoPipe initialises from),
// an even-split planner, an exhaustive planner for small instances (used
// to test DP optimality), and the two-worker-swap neighbourhood AutoPipe
// searches (paper §4.2 "New worker partition").
package partition

import (
	"fmt"
	"sort"
)

// Stage is a contiguous layer range replicated over a worker set. With
// more than one worker the stage is data-parallel: mini-batches are
// round-robined across replicas and gradients are synchronised.
type Stage struct {
	// Start and End delimit the half-open layer interval [Start, End).
	Start int `json:"start"`
	End   int `json:"end"`
	// Workers are the GPU ids executing this stage.
	Workers []int `json:"workers"`
}

// NumLayers returns the stage's layer count.
func (s Stage) NumLayers() int { return s.End - s.Start }

// Replicas returns the stage's data-parallel width.
func (s Stage) Replicas() int { return len(s.Workers) }

// Plan is a complete work partition: an ordered stage list plus the
// number of in-flight mini-batches that fill the pipeline (PipeDream's
// NOAM, "optimal number of on-the-fly mini-batches").
// Plan serialises losslessly through encoding/json (snake_case field
// names); the wire form is part of the autopiped daemon's API.
type Plan struct {
	Stages   []Stage `json:"stages"`
	InFlight int     `json:"in_flight"`
}

// NumStages returns the pipeline depth.
func (p Plan) NumStages() int { return len(p.Stages) }

// Workers returns all worker ids used by the plan, in stage order.
func (p Plan) AllWorkers() []int {
	var ws []int
	for _, s := range p.Stages {
		ws = append(ws, s.Workers...)
	}
	return ws
}

// NumWorkers returns the total worker count across all stages without
// allocating (unlike len(AllWorkers())).
func (p Plan) NumWorkers() int {
	n := 0
	for _, s := range p.Stages {
		n += len(s.Workers)
	}
	return n
}

// WorkerStage returns the index of the stage running on worker w, or -1.
func (p Plan) WorkerStage(w int) int {
	for i, s := range p.Stages {
		for _, sw := range s.Workers {
			if sw == w {
				return i
			}
		}
	}
	return -1
}

// StageOfLayer returns the index of the stage containing layer l, or -1.
func (p Plan) StageOfLayer(l int) int {
	for i, s := range p.Stages {
		if l >= s.Start && l < s.End {
			return i
		}
	}
	return -1
}

// Validate checks that the plan covers layers [0, L) contiguously, uses
// each worker at most once, has at least one worker per stage, and a
// positive in-flight count.
func (p Plan) Validate(numLayers, numWorkers int) error {
	if len(p.Stages) == 0 {
		return fmt.Errorf("partition: empty plan")
	}
	if p.InFlight <= 0 {
		return fmt.Errorf("partition: non-positive InFlight %d", p.InFlight)
	}
	next := 0
	seen := map[int]bool{}
	for i, s := range p.Stages {
		if s.Start != next {
			return fmt.Errorf("partition: stage %d starts at %d, want %d", i, s.Start, next)
		}
		if s.End <= s.Start {
			return fmt.Errorf("partition: stage %d empty [%d,%d)", i, s.Start, s.End)
		}
		if len(s.Workers) == 0 {
			return fmt.Errorf("partition: stage %d has no workers", i)
		}
		for _, w := range s.Workers {
			if w < 0 || w >= numWorkers {
				return fmt.Errorf("partition: stage %d has invalid worker %d", i, w)
			}
			if seen[w] {
				return fmt.Errorf("partition: worker %d assigned twice", w)
			}
			seen[w] = true
		}
		next = s.End
	}
	if next != numLayers {
		return fmt.Errorf("partition: plan covers %d layers, model has %d", next, numLayers)
	}
	return nil
}

// Clone returns a deep copy of the plan.
func (p Plan) Clone() Plan {
	out := Plan{InFlight: p.InFlight, Stages: make([]Stage, len(p.Stages))}
	for i, s := range p.Stages {
		out.Stages[i] = Stage{Start: s.Start, End: s.End, Workers: append([]int(nil), s.Workers...)}
	}
	return out
}

// Equal reports whether two plans are structurally identical.
func (p Plan) Equal(q Plan) bool {
	if len(p.Stages) != len(q.Stages) || p.InFlight != q.InFlight {
		return false
	}
	for i := range p.Stages {
		a, b := p.Stages[i], q.Stages[i]
		if a.Start != b.Start || a.End != b.End || len(a.Workers) != len(b.Workers) {
			return false
		}
		for j := range a.Workers {
			if a.Workers[j] != b.Workers[j] {
				return false
			}
		}
	}
	return true
}

// Hash64 returns a 64-bit FNV-1a hash of the plan's canonical encoding
// (InFlight, then each stage's bounds and worker list, with per-field
// separators so adjacent fields cannot alias). Two Equal plans always
// hash identically; the search layers use it as the memo-cache key.
func (p Plan) Hash64() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	// Word-at-a-time FNV-1a: one xor-multiply per field (the fields are
	// small ints, so byte-splitting buys nothing), then a splitmix64
	// finalizer to spread the entropy the truncated polynomial leaves in
	// the low bits. This sits on the search hot path — every candidate is
	// hashed every round to key the memo cache.
	h := uint64(offset64)
	h = (h ^ uint64(p.InFlight)) * prime64
	for _, s := range p.Stages {
		h = (h ^ uint64(s.Start)) * prime64
		h = (h ^ uint64(s.End)) * prime64
		h = (h ^ uint64(len(s.Workers))) * prime64
		for _, w := range s.Workers {
			h = (h ^ uint64(w)) * prime64
		}
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// String renders the plan compactly, e.g. "[0:12)@{0,1} [12:20)@{2} |3".
func (p Plan) String() string {
	out := ""
	for i, s := range p.Stages {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("[%d:%d)@%v", s.Start, s.End, s.Workers)
	}
	return fmt.Sprintf("%s |%d", out, p.InFlight)
}

// DiffWorkers returns the ids of workers whose assigned layer range
// differs between two plans (the paper's switching constraint: a valid
// AutoPipe step changes at most two workers' tasks).
func DiffWorkers(a, b Plan) []int {
	rangeOf := func(p Plan, w int) (int, int, bool) {
		si := p.WorkerStage(w)
		if si < 0 {
			return 0, 0, false
		}
		return p.Stages[si].Start, p.Stages[si].End, true
	}
	seen := map[int]bool{}
	for _, w := range append(a.AllWorkers(), b.AllWorkers()...) {
		seen[w] = true
	}
	var diff []int
	for w := range seen {
		as, ae, aok := rangeOf(a, w)
		bs, be, bok := rangeOf(b, w)
		if aok != bok || as != bs || ae != be {
			diff = append(diff, w)
		}
	}
	sort.Ints(diff)
	return diff
}
