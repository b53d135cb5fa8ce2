package server

import (
	"slices"

	"autopipe"
)

// SetMinority switches partition-shedding mode. Entering it pauses
// every running job at its next event boundary (virtual time freezes,
// so a later resume is bit-identical) and makes Submit refuse with
// ErrMinority; leaving it resumes the paused jobs with a fresh
// watchdog grace period. Idempotent and safe from any goroutine. The
// fleet layer drives this from its quorum evaluation: a node that
// cannot reach a strict majority of the membership must not issue
// switches or adopt jobs that the majority side may be re-homing.
func (r *Registry) SetMinority(v bool) {
	if r.minority.Swap(v) == v {
		return
	}
	if v {
		for _, m := range r.snapshot() {
			if j := m.current(); j != nil {
				j.Pause()
			}
		}
		return
	}
	now := r.now()
	for _, m := range r.snapshot() {
		j := m.current()
		if j == nil || !j.Paused() {
			continue
		}
		m.mu.Lock()
		m.lastProgress = now // fresh grace: the pause was not a stall
		m.mu.Unlock()
		j.Resume()
	}
}

// Minority reports whether the registry is in partition-shedding mode.
func (r *Registry) Minority() bool { return r.minority.Load() }

// JobFence is one hosted job's ownership epoch, exchanged in the
// fleet's heal-time anti-entropy digests.
type JobFence struct {
	ID    string `json:"id"`
	Fence uint64 `json:"fence"`
}

// HostedFences lists every hosted job's fence epoch in submission
// order.
func (r *Registry) HostedFences() []JobFence {
	jobs := r.snapshot()
	out := make([]JobFence, 0, len(jobs))
	for _, m := range jobs {
		out = append(out, JobFence{ID: m.id, Fence: m.fence})
	}
	return out
}

// Fence returns a hosted job's ownership epoch.
func (r *Registry) Fence(id string) (uint64, bool) {
	m, ok := r.lookup(id)
	if !ok {
		return 0, false
	}
	return m.fence, true
}

// jobDone reports whether a job presents the done state, as Get shows
// it: only once finish has frozen it. Done is the one state fencing
// never overrides: a finished result is preserved over any competing
// copy regardless of epoch. A cancelled or failed copy is fenced like a
// live one.
func (r *Registry) jobDone(m *managedJob) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stateLocked() == autopipe.JobDone
}

// tombstone reports the fence epoch a job was abandoned at, if any.
func (r *Registry) tombstone(id string) (uint64, bool) {
	r.fencedMu.Lock()
	f, ok := r.fenced[id]
	r.fencedMu.Unlock()
	return f, ok
}

func (r *Registry) clearTombstone(id string) {
	r.fencedMu.Lock()
	delete(r.fenced, id)
	r.fencedMu.Unlock()
}

// FenceOut abandons this node's copy of a job because another node now
// owns it at a higher fence epoch — the heal-side half of fenced
// ownership transfer. The copy is cancelled (rolling back any
// in-flight plan switch), removed from the registry and the run queue,
// its future journal/replication output is suppressed, and the journal
// is compacted so no post-fence records from the stale owner survive on
// disk. Returns false when the job is unknown, already at or above the
// epoch, or done (a finished result always wins).
func (r *Registry) FenceOut(id string, fence uint64) bool {
	r.mu.Lock()
	m, ok := r.jobs[id]
	if !ok || m.fence >= fence || r.jobDone(m) {
		r.mu.Unlock()
		return false
	}
	r.unlistLocked(m)
	// Suppress journal/replication output before aborting the job so a
	// completion record racing the cancellation cannot slip out.
	r.fencedMu.Lock()
	r.fenced[id] = fence
	r.fencedMu.Unlock()
	r.queue = slices.DeleteFunc(r.queue, func(q *managedJob) bool { return q == m })
	r.counters.FencedOut++
	r.mu.Unlock()

	m.halt(true) // cancel + roll back any half-applied switch
	r.compact(true)
	return true
}

// QueuedJob is a not-yet-started job taken out of the registry by
// DetachQueued for handoff to a fleet peer.
type QueuedJob struct {
	ID   string
	Spec JobSpec
}

// DetachQueued atomically takes the run queue — every job still waiting
// for a worker — out of the registry and returns the specs, oldest
// first, so a draining fleet node can hand them to peers instead of
// refusing them. It first waits for in-flight admissions to finish
// journaling, so an acknowledged submission is handed off too. Jobs a
// worker has already popped (even if shutdown will refuse them) are
// left alone.
func (r *Registry) DetachQueued() []QueuedJob {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.reserved > 0 {
		r.work.Wait()
	}
	out := make([]QueuedJob, 0, len(r.queue))
	for _, m := range r.queue {
		out = append(out, QueuedJob{ID: m.id, Spec: m.spec})
	}
	r.unlistLocked(r.queue...)
	r.queue = nil
	return out
}
