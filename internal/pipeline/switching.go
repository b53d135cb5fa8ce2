package pipeline

import (
	"fmt"
	"sort"

	"autopipe/internal/model"
	"autopipe/internal/netsim"
	"autopipe/internal/partition"
	"autopipe/internal/sim"
)

// SwitchMode selects how a new work partition is put in place.
type SwitchMode int

// Switch modes.
const (
	// SwitchAuto uses fine-grained switching when the new plan is
	// boundary-compatible with the running one, full restart otherwise.
	SwitchAuto SwitchMode = iota
	// SwitchRestart drains the pipeline, migrates weights, rebuilds, and
	// refills — the straw-man reconfiguration of paper §3.1 (pays the
	// full pipeline drain + startup bubbles).
	SwitchRestart
	// SwitchFineGrained migrates the moved layers one by one while the
	// pipeline keeps running (paper §4.4: layer-by-layer computation
	// plus weight stashing), pausing only the affected workers for the
	// per-layer commit instants.
	SwitchFineGrained
	// SwitchEvict is a forced restart that discards the in-flight
	// mini-batches instead of draining them. Draining requires every
	// in-flight batch to traverse every stage, which wedges forever when
	// a stage's worker is dead — eviction after a failure must not wait
	// for the failed worker to finish work it will never finish. The
	// discarded batch indices are re-injected after the rebuild.
	SwitchEvict
)

// layerSwitchOverhead is the per-layer commit overhead of fine-grained
// switching: the PCIe-call and bookkeeping cost PipeSwitch attributes to
// layer-by-layer transmission.
const layerSwitchOverhead = 2e-3 // seconds

// Watchdog and retry tuning. The watchdog is progress-based: a switch is
// aborted only after a quiet period — no drain completion and no
// migration-flow landing — longer than a generous multiple of the
// predicted time per progress step (so a slow-but-advancing switch never
// trips it, while a wedged one always does). Migration flows
// individually get a per-attempt deadline, scaled by how many flows
// share the links, with bounded retry before the whole switch is
// declared stalled.
const (
	switchSafetyDefault = 10.0  // quiet period = predicted step time × this
	minSwitchDeadline   = 1.0   // seconds; floor for the quiet period
	maxSwitchQuiet      = 120.0 // seconds; cap so a wedged switch always aborts
	flowSafetyFactor    = 8.0   // per-attempt flow deadline multiplier
	minFlowDeadline     = 0.25  // seconds; floor per migration attempt
	maxMigrationRetries = 2     // re-sends before blaming the destination
	retryBackoffBase    = 0.05  // seconds; doubles per retry
)

// SwitchResult reports how a plan switch ended. It is handed to the
// ApplyPlan callback and to OnSwitchResult observers.
type SwitchResult struct {
	// Committed is true when the new plan took effect; false when the
	// switch was aborted and the incumbent plan rolled forward.
	Committed bool
	// Mode is the resolved switch mode (never SwitchAuto).
	Mode SwitchMode
	// StalledWorkers lists migration destinations whose transfers timed
	// out after retries — eviction candidates for the controller. Empty
	// for watchdog timeouts with no identified culprit and for
	// externally requested aborts.
	StalledWorkers []int
	// Elapsed is the virtual time from ApplyPlan to this outcome.
	Elapsed sim.Time
}

// MigrationVolume returns the weight bytes that must move between workers
// when switching plans: for every layer, each worker that newly owns it
// must receive its parameters from a previous owner. Layers without any
// old owner have no source and transfer nothing (matching the flows the
// engine actually starts).
func MigrationVolume(m *model.Model, oldPlan, newPlan partition.Plan) int64 {
	ownersOf := func(p partition.Plan, layer int) map[int]bool {
		si := p.StageOfLayer(layer)
		out := map[int]bool{}
		if si < 0 {
			return out
		}
		for _, w := range p.Stages[si].Workers {
			out[w] = true
		}
		return out
	}
	var total int64
	for l := 0; l < m.NumLayers(); l++ {
		oldOwners := ownersOf(oldPlan, l)
		if len(oldOwners) == 0 {
			continue // no source copy exists: nothing can move
		}
		for w := range ownersOf(newPlan, l) {
			if !oldOwners[w] {
				total += m.Layers[l].ParamBytes()
			}
		}
	}
	return total
}

// BoundaryCompatible reports whether newPlan differs from oldPlan only in
// stage boundaries (same stage count, same worker set per stage) — the
// precondition for fine-grained switching.
func BoundaryCompatible(oldPlan, newPlan partition.Plan) bool {
	if len(oldPlan.Stages) != len(newPlan.Stages) {
		return false
	}
	for i := range oldPlan.Stages {
		a, b := oldPlan.Stages[i].Workers, newPlan.Stages[i].Workers
		if len(a) != len(b) {
			return false
		}
		for j := range a {
			if a[j] != b[j] {
				return false
			}
		}
	}
	return true
}

// Switching reports whether a plan switch is currently in progress.
func (e *AsyncEngine) Switching() bool {
	return e.draining || e.pendingPlan != nil
}

// CommittedPlan returns the authoritative configured plan (the incumbent
// during a switch; equal to Plan() when idle).
func (e *AsyncEngine) CommittedPlan() partition.Plan { return e.cfg.Plan.Clone() }

// SwitchIdle verifies that no switch state is stranded: no pending plan,
// no drain flag, no unfired completion callback, no live watchdog, and
// no tracked migration flows or timers. It is the invariant a chaos
// harness asserts after every switch outcome.
func (e *AsyncEngine) SwitchIdle() error {
	switch {
	case e.pendingPlan != nil:
		return fmt.Errorf("pipeline: stranded pendingPlan")
	case e.draining:
		return fmt.Errorf("pipeline: stranded draining flag")
	case e.switchDone != nil:
		return fmt.Errorf("pipeline: stranded switchDone callback")
	case e.watchdog != nil:
		return fmt.Errorf("pipeline: stranded switch watchdog")
	case len(e.migFlowsLive) > 0:
		return fmt.Errorf("pipeline: %d stranded migration flows", len(e.migFlowsLive))
	case len(e.switchEvents) > 0:
		return fmt.Errorf("pipeline: %d stranded switch timers", len(e.switchEvents))
	case len(e.migPendingDst) > 0:
		return fmt.Errorf("pipeline: %d stranded migration destinations", len(e.migPendingDst))
	}
	return nil
}

// OnSwitchResult registers an observer fired on every switch outcome
// (commit or abort), before the per-call done callback — so observers
// see the settled engine state even when done immediately starts another
// switch (abort-then-evict).
func (e *AsyncEngine) OnSwitchResult(fn func(SwitchResult)) {
	e.onSwitchResult = append(e.onSwitchResult, fn)
}

// ApplyPlan transitions the running pipeline to newPlan. done (may be
// nil) fires once with the outcome: committed, or aborted by the switch
// watchdog / AbortSwitch with the incumbent plan rolled forward. Returns
// an error if a switch is already in progress, the plan is invalid, or
// SwitchFineGrained is forced on an incompatible plan.
func (e *AsyncEngine) ApplyPlan(newPlan partition.Plan, mode SwitchMode, done func(SwitchResult)) error {
	if e.Switching() {
		return fmt.Errorf("pipeline: switch already in progress")
	}
	if err := newPlan.Validate(e.cfg.Model.NumLayers(), e.cfg.Cluster.NumGPUs()); err != nil {
		return err
	}
	cur := e.Plan()
	structural := cur.Clone()
	structural.InFlight = newPlan.InFlight
	if newPlan.Equal(structural) {
		// InFlight-only changes commit instantly: no task moves.
		e.cfg.Plan.InFlight = newPlan.InFlight
		e.inject()
		if done != nil {
			e.eng.After(0, "switch/noop", func() {
				done(SwitchResult{Committed: true, Mode: mode})
			})
		}
		return nil
	}
	compatible := BoundaryCompatible(cur, newPlan)
	switch mode {
	case SwitchFineGrained:
		if !compatible {
			return fmt.Errorf("pipeline: plans not boundary-compatible for fine-grained switch")
		}
	case SwitchAuto:
		if compatible {
			mode = SwitchFineGrained
		} else {
			mode = SwitchRestart
		}
	}
	e.SwitchCount++
	e.MigratedBytes += MigrationVolume(e.cfg.Model, cur, newPlan)
	np := newPlan.Clone()
	e.pendingPlan = &np
	e.switchDone = done
	e.switchMode = mode
	e.switchStart = e.eng.Now()
	e.switchEpoch++
	e.armWatchdog(cur, np, mode)
	if mode == SwitchFineGrained {
		e.startFineGrainedSwitch(cur, np)
		return nil
	}
	e.draining = true
	if mode == SwitchEvict {
		e.discardInFlight()
	}
	if e.inFlight == 0 {
		e.completeRestartSwitch()
	}
	return nil
}

// AbortSwitch cancels an in-progress switch: pending migration flows and
// timers are dropped, blocked workers released, the incumbent plan stays
// authoritative, and the switch callback fires with Committed=false.
// Returns false when no switch is in progress or the switch is already
// past its commit point.
func (e *AsyncEngine) AbortSwitch() bool {
	if !e.Switching() || e.committing {
		return false
	}
	e.abortSwitch(nil)
	return true
}

// armWatchdog computes the stall quiet-period for this switch and starts
// the timer. The quiet period is the worst plausible gap between two
// progress events: the slowest single migration transfer (scaled by how
// many flows contend for the links) plus the per-layer commit overhead
// plus — for draining modes — the recent per-batch completion interval,
// all scaled by the safety factor and floored.
func (e *AsyncEngine) armWatchdog(cur, np partition.Plan, mode SwitchMode) {
	flows := e.migrationFlows(cur, np)
	maxFlow := 0.0
	for _, f := range flows {
		if est := e.net.EstimateSeconds(f.src, f.dst, f.bytes); est > maxFlow {
			maxFlow = est
		}
	}
	conc := 1
	if mode != SwitchFineGrained && len(flows) > 1 {
		conc = len(flows) // restart migrates in parallel over shared links
	}
	step := maxFlow*float64(conc) + layerSwitchOverhead
	if mode != SwitchFineGrained {
		// Drain allowance: the larger of the observed per-batch interval
		// and a full pipeline traversal at current (possibly degraded)
		// compute speeds — a cold pipeline has no completion history yet.
		drain := e.recentBatchSeconds()
		if tr := e.pipeTraversalSeconds(); tr > drain {
			drain = tr
		}
		step += drain
	}
	safety := e.SwitchSafetyFactor
	if safety <= 0 {
		safety = switchSafetyDefault
	}
	e.watchdogQuiet = step * safety
	if e.watchdogQuiet < minSwitchDeadline {
		e.watchdogQuiet = minSwitchDeadline
	}
	// The cap keeps the watchdog meaningful when the traversal estimate
	// itself blows up (a near-dead worker inflates it unboundedly): a
	// switch with no progress for this long is wedged, not slow.
	if e.watchdogQuiet > maxSwitchQuiet {
		e.watchdogQuiet = maxSwitchQuiet
	}
	e.rearmWatchdog()
}

// pipeTraversalSeconds estimates one mini-batch's full FP+BP traversal
// of the pipeline at current cluster speeds — per stage, the slowest
// replica's compute time.
func (e *AsyncEngine) pipeTraversalSeconds() float64 {
	total := 0.0
	for _, st := range e.stages {
		worst := 0.0
		for _, r := range st.replicas {
			t := e.cfg.Cluster.StageFPTime(e.cfg.Model, st.start, st.end, r.worker) +
				e.cfg.Cluster.StageBPTime(e.cfg.Model, st.start, st.end, r.worker)
			if t > worst {
				worst = t
			}
		}
		total += worst
	}
	return total / e.cfg.Framework.Efficiency
}

// rearmWatchdog (re)starts the quiet-period timer.
func (e *AsyncEngine) rearmWatchdog() {
	if e.watchdog != nil {
		e.eng.Cancel(e.watchdog)
	}
	epoch := e.switchEpoch
	e.watchdog = e.eng.After(sim.Time(e.watchdogQuiet), "switch/watchdog", func() {
		if e.switchEpoch != epoch || e.committing {
			return
		}
		e.watchdog = nil
		e.abortSwitch(nil)
	})
}

// noteSwitchProgress resets the stall timer; called whenever the switch
// observably advances (a mini-batch drains, a migration flow lands).
func (e *AsyncEngine) noteSwitchProgress() {
	if e.watchdog == nil || !e.Switching() || e.committing {
		return
	}
	e.rearmWatchdog()
}

// abortSwitch rolls an in-progress switch back. The incumbent plan never
// stopped being authoritative — a fine-grained switch flips boundaries
// only at its final commit and a restart rebuilds only after migration —
// so rollback is cancellation plus release, not state restoration.
func (e *AsyncEngine) abortSwitch(stalled []int) {
	if !e.Switching() || e.committing {
		return
	}
	// A watchdog abort (no explicit blame) blames the destinations of
	// migration transfers that never landed: those are the workers the
	// switch was wedged on.
	if stalled == nil {
		for w, n := range e.migPendingDst {
			if n > 0 {
				stalled = append(stalled, w)
			}
		}
		sort.Ints(stalled)
	}
	e.switchEpoch++ // invalidate every callback the dead switch scheduled
	e.clearSwitchTimers()
	mode := e.switchMode
	e.pendingPlan = nil
	e.draining = false
	// Release workers blocked for a commit window, in deterministic order.
	var blocked []int
	for w, r := range e.byWorker {
		if r.blocked {
			blocked = append(blocked, w)
		}
	}
	sort.Ints(blocked)
	for _, w := range blocked {
		e.byWorker[w].blocked = false
		e.tryStart(e.byWorker[w])
	}
	e.AbortedSwitches++
	e.inject()
	e.finishSwitch(SwitchResult{
		Committed: false, Mode: mode, StalledWorkers: stalled,
		Elapsed: e.eng.Now() - e.switchStart,
	})
}

// clearSwitchTimers cancels the watchdog plus every timer and migration
// flow the current switch still owns.
func (e *AsyncEngine) clearSwitchTimers() {
	e.migrating = false
	if e.watchdog != nil {
		e.eng.Cancel(e.watchdog)
		e.watchdog = nil
	}
	for _, ev := range e.switchEvents {
		e.eng.Cancel(ev)
	}
	e.switchEvents = nil
	for _, fl := range e.migFlowsLive {
		e.net.CancelFlow(fl)
	}
	e.migFlowsLive = nil
	e.migPendingDst = nil
}

// finishSwitch fires observers, then the per-call done callback.
func (e *AsyncEngine) finishSwitch(res SwitchResult) {
	done := e.switchDone
	e.switchDone = nil
	for _, fn := range e.onSwitchResult {
		fn(res)
	}
	if done != nil {
		done(res)
	}
}

// recentBatchSeconds estimates the current per-batch completion interval
// from the last few completions — the drain-time basis for the watchdog.
func (e *AsyncEngine) recentBatchSeconds() float64 {
	n := len(e.completions)
	k := 5
	if k > n {
		k = n
	}
	if k < 2 {
		return 0
	}
	return float64(e.completions[n-1]-e.completions[n-k]) / float64(k-1)
}

// runMigFlow starts one migration transfer under a per-attempt deadline
// with bounded retry-and-backoff; onDone fires once when a send lands.
// conc is how many migration flows contend for the links at once (the
// deadline stretches accordingly). Exhausted retries abort the whole
// switch, blaming the destination.
func (e *AsyncEngine) runMigFlow(f migFlow, format string, conc int, onDone func()) {
	if conc < 1 {
		conc = 1
	}
	if e.migPendingDst == nil {
		e.migPendingDst = map[int]int{}
	}
	e.migPendingDst[f.dst]++
	epoch := e.switchEpoch
	attempt := 0
	var start func()
	start = func() {
		if e.switchEpoch != epoch {
			return
		}
		deadline := e.net.EstimateSeconds(f.src, f.dst, f.bytes) * flowSafetyFactor * float64(conc)
		if deadline < minFlowDeadline {
			deadline = minFlowDeadline
		}
		settled := false
		var timer *sim.Event
		fl := e.net.StartFlow(f.src, f.dst, f.bytes, netsim.Namef(format, f.layer, f.src, f.dst), func() {
			if e.switchEpoch != epoch || settled {
				return
			}
			settled = true
			e.eng.Cancel(timer)
			if e.migPendingDst[f.dst]--; e.migPendingDst[f.dst] == 0 {
				delete(e.migPendingDst, f.dst)
			}
			e.noteSwitchProgress()
			onDone()
		})
		if fl != 0 {
			e.migFlowsLive = append(e.migFlowsLive, fl)
		}
		timer = e.eng.After(sim.Time(deadline), "switch/flowdeadline", func() {
			if e.switchEpoch != epoch || settled {
				return
			}
			settled = true
			e.net.CancelFlow(fl)
			if attempt >= maxMigrationRetries {
				e.abortSwitch([]int{f.dst})
				return
			}
			attempt++
			e.MigrationRetries++
			backoff := retryBackoffBase * float64(int(1)<<attempt)
			e.switchEvents = append(e.switchEvents,
				e.eng.After(sim.Time(backoff), "switch/retry", start))
		})
		e.switchEvents = append(e.switchEvents, timer)
	}
	start()
}

// completeRestartSwitch runs after the pipeline drains (or, under
// SwitchEvict, immediately after the in-flight work is discarded):
// migrate all moved weights in parallel, rebuild the stage graph, refill.
func (e *AsyncEngine) completeRestartSwitch() {
	e.migrating = true
	np := *e.pendingPlan
	cur := e.Plan()
	flows := e.migrationFlows(cur, np)
	remaining := len(flows)
	commit := func() {
		e.clearSwitchTimers()
		mode := e.switchMode
		e.cfg.Plan = np
		e.buildStages(np)
		e.pendingPlan = nil
		e.draining = false
		e.inject()
		e.finishSwitch(SwitchResult{
			Committed: true, Mode: mode, Elapsed: e.eng.Now() - e.switchStart,
		})
	}
	if remaining == 0 {
		commit()
		return
	}
	for _, f := range flows {
		e.runMigFlow(f, "migrate/L%d:%d→%d", len(flows), func() {
			remaining--
			if remaining == 0 {
				commit()
			}
		})
	}
}

type migFlow struct {
	src, dst int
	bytes    int64
	layer    int
}

// migrationFlows lists the weight transfers a switch requires, one per
// (layer, new-owner) pair, sourced from the first old owner. Layers
// without an old owner (or with an empty old worker list) have no source
// and are skipped, consistent with MigrationVolume.
func (e *AsyncEngine) migrationFlows(oldPlan, newPlan partition.Plan) []migFlow {
	var out []migFlow
	for l := 0; l < e.cfg.Model.NumLayers(); l++ {
		osi := oldPlan.StageOfLayer(l)
		nsi := newPlan.StageOfLayer(l)
		if osi < 0 || nsi < 0 || len(oldPlan.Stages[osi].Workers) == 0 {
			continue
		}
		oldOwners := map[int]bool{}
		for _, w := range oldPlan.Stages[osi].Workers {
			oldOwners[w] = true
		}
		src := oldPlan.Stages[osi].Workers[0]
		for _, w := range newPlan.Stages[nsi].Workers {
			if !oldOwners[w] {
				out = append(out, migFlow{
					src: src, dst: w,
					bytes: e.cfg.Model.Layers[l].ParamBytes(),
					layer: l,
				})
			}
		}
	}
	return out
}

// startFineGrainedSwitch migrates moved layers one at a time (the
// PipeSwitch-style layer-by-layer pipeline) while training continues.
// Weight stashing keeps in-flight batches consistent; the affected
// workers block only for the per-layer commit overhead. The stage
// boundaries flip when the last layer lands.
func (e *AsyncEngine) startFineGrainedSwitch(cur, np partition.Plan) {
	flows := e.migrationFlows(cur, np)
	// Later layers first: the paper migrates "the weight copy of later
	// active mini-batch first" to avoid stalling the tail of the
	// pipeline; for layer ownership that means descending layer order.
	for i := 0; i < len(flows); i++ {
		for j := i + 1; j < len(flows); j++ {
			if flows[j].layer > flows[i].layer {
				flows[i], flows[j] = flows[j], flows[i]
			}
		}
	}
	affected := partition.DiffWorkers(cur, np)
	sort.Ints(affected)
	epoch := e.switchEpoch
	commit := func() {
		// Past the point of no return: the watchdog and AbortSwitch stand
		// down, boundaries flip in place, and the affected workers pause
		// only for the final commit overhead.
		e.clearSwitchTimers()
		e.committing = true
		e.cfg.Plan = np
		for i := range e.stages {
			e.stages[i].start = np.Stages[i].Start
			e.stages[i].end = np.Stages[i].End
		}
		for _, w := range affected {
			e.byWorker[w].blocked = true
		}
		e.eng.After(sim.Time(layerSwitchOverhead), "switch/commit", func() {
			e.committing = false
			e.pendingPlan = nil
			for _, w := range affected {
				r := e.byWorker[w]
				r.blocked = false
				e.tryStart(r)
			}
			e.finishSwitch(SwitchResult{
				Committed: true, Mode: SwitchFineGrained,
				Elapsed: e.eng.Now() - e.switchStart,
			})
		})
	}
	var step func(i int)
	step = func(i int) {
		if i >= len(flows) {
			commit()
			return
		}
		e.runMigFlow(flows[i], "finemigrate/L%d:%d→%d", 1, func() {
			// Per-layer commit: negligible pause modelled as overhead
			// serialised into the migration chain (not blocking compute).
			ev := e.eng.After(sim.Time(layerSwitchOverhead), "switch/layer", func() {
				if e.switchEpoch != epoch {
					return
				}
				step(i + 1)
			})
			e.switchEvents = append(e.switchEvents, ev)
		})
	}
	step(0)
}
