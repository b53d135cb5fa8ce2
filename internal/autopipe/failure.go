package autopipe

import (
	"slices"

	"autopipe/internal/partition"
	"autopipe/internal/pipeline"
	"autopipe/internal/profile"
)

// Failure handling. The Philly measurement study the paper builds on
// (its reference [7]) lists failures as one of the three factors behind
// shared-cluster fluctuation. A GPU that fails — or is throttled so hard
// it cannot make progress — shows up in the profiler as a catastrophic
// per-layer time blow-up. The controller evicts such workers: it
// recomputes a partition over the surviving workers and applies it as an
// evicting switch (fine-grained switching cannot help when the worker
// set itself changes, and draining through a dead worker never ends).
// A failure detected while a switch is already in flight aborts that
// switch first — abort-then-evict — instead of being dropped.

// failureRatio is the slowdown relative to the median worker beyond
// which a worker is treated as failed.
const failureRatio = 8.0

// detectFailures returns workers in the active plan whose total compute
// time exceeds failureRatio × the median across plan workers, in
// ascending order. The median is interpolated for even counts: the
// upper median would let a single degraded worker in a half-degraded
// cluster inflate the threshold past its own slowdown. The result lives
// in the controller's scratch and is valid until the next call.
func (c *Controller) detectFailures(prof *profile.Profile) []int {
	fs := &c.failScratch
	fs.workers = fs.workers[:0]
	for _, s := range c.plan.Stages {
		fs.workers = append(fs.workers, s.Workers...)
	}
	if len(fs.workers) < 2 {
		return nil
	}
	fs.times = fs.times[:0]
	for _, w := range fs.workers {
		fs.times = append(fs.times, prof.TotalComputeTime(w))
	}
	fs.sorted = append(fs.sorted[:0], fs.times...)
	slices.Sort(fs.sorted)
	n := len(fs.sorted)
	var median float64
	if n%2 == 1 {
		median = fs.sorted[n/2]
	} else {
		median = (fs.sorted[n/2-1] + fs.sorted[n/2]) / 2
	}
	if median <= 0 {
		return nil
	}
	fs.failed = fs.failed[:0]
	for i, w := range fs.workers {
		if fs.times[i] > failureRatio*median && !c.excluded[w] {
			fs.failed = append(fs.failed, w)
		}
	}
	slices.Sort(fs.failed)
	return fs.failed
}

// handleFailures evicts failed workers by replanning onto the survivors.
// A switch already in progress is aborted first (abort-then-evict):
// migrating weight onto a failing worker is work the eviction would
// immediately discard, and a restart drain through it never completes.
// Returns true if failure handling consumed this control round.
func (c *Controller) handleFailures(prof *profile.Profile) bool {
	failed := c.detectFailures(prof)
	if len(failed) == 0 {
		return false
	}
	if c.engine.Switching() {
		if !c.engine.AbortSwitch() {
			// Past the commit point: the switch lands within the commit
			// overhead; the eviction re-fires next control round.
			return true
		}
		c.stats.QueuedEvictions++
	}
	c.evict(failed)
	return true
}

// evict replans onto the workers surviving after dropping the given
// failed set and applies the new plan as an evicting switch. Returns
// true when the switch was initiated.
func (c *Controller) evict(failed []int) bool {
	inPlan := map[int]bool{}
	for _, w := range c.plan.AllWorkers() {
		inPlan[w] = true
	}
	bad := map[int]bool{}
	for _, w := range failed {
		if inPlan[w] && !c.excluded[w] {
			bad[w] = true
		}
	}
	if len(bad) == 0 {
		return false
	}
	var survivors []int
	for _, w := range c.cfg.Workers {
		if !bad[w] && !c.excluded[w] {
			survivors = append(survivors, w)
		}
	}
	if len(survivors) == 0 {
		return false // nothing left to run on; keep limping
	}
	cm := partition.NewRefinedCost(c.cfg.Model, c.cfg.Cluster, survivors)
	newPlan := partition.PipeDream(cm, survivors)
	if err := newPlan.Validate(c.cfg.Model.NumLayers(), c.cfg.Cluster.NumGPUs()); err != nil {
		return false
	}
	np := newPlan
	if err := c.engine.ApplyPlan(np, pipeline.SwitchEvict, func(res pipeline.SwitchResult) {
		if !res.Committed {
			return
		}
		c.setPlan(np)
		c.itersSinceSwitch = 0
		c.stats.SwitchesApplied++
	}); err != nil {
		return false
	}
	for w := range bad {
		c.excluded[w] = true
	}
	c.logDecision(DecisionRecord{Kind: "evict", Candidate: np})
	c.stats.Evictions += len(bad)
	c.stats.SwitchesChosen++
	return true
}
