package server

import (
	"encoding/json"
	"errors"
	"fmt"

	"autopipe"
	"autopipe/internal/journal"
)

// ErrDuplicateID is returned by SubmitWithID for an ID already hosted.
var ErrDuplicateID = errors.New("server: job id already exists")

// Submit validates the spec, journals it and queues it for the pool;
// the worker that pops the job builds it. Submissions beyond the
// admission queue are refused with ErrQueueFull; submissions after
// Shutdown with ErrClosed; a submission whose spec cannot be journaled
// with ErrNotDurable.
func (r *Registry) Submit(spec JobSpec) (JobInfo, error) {
	return r.SubmitWithID("", spec)
}

// SubmitWithID is Submit with a caller-assigned job ID — the fleet
// layer assigns globally unique IDs at the gateway node so the
// consistent-hash ring can place jobs before they reach their owner. An
// empty ID draws from the registry's own sequence.
//
// A minority node, a closed registry or a full queue refuses before
// the spec is validated, so shedding costs no allocation, and an
// invalid spec sent while the queue is full gets ErrQueueFull, not a
// validation error. Validation assembles the job's configuration and
// discards it: the initial plan and the simulator are built by the
// worker. A nil error means the job is durable: it holds a queue slot
// while its submission is journaled and joins the run queue only
// after; if the append fails it is unregistered again.
func (r *Registry) SubmitWithID(id string, spec JobSpec) (JobInfo, error) {
	r.mu.Lock()
	err := r.admitLocked()
	r.mu.Unlock()
	if err != nil {
		return JobInfo{}, err
	}
	if _, _, err := spec.build(); err != nil {
		return JobInfo{}, fmt.Errorf("invalid job spec: %w", err)
	}
	m := &managedJob{spec: spec, fence: 1}

	r.mu.Lock()
	if err := r.admitLocked(); err != nil {
		r.mu.Unlock()
		return JobInfo{}, err
	}
	if id == "" {
		r.seq++
		id = fmt.Sprintf("job-%04d", r.seq)
	}
	m.id = id
	m.created = r.now()
	// An id fenced away to another node still exists cluster-wide, so
	// resubmitting it here is a duplicate too.
	_, gone := r.tombstone(id)
	if _, ok := r.jobs[id]; ok || gone {
		r.mu.Unlock()
		return JobInfo{}, fmt.Errorf("%w: %s", ErrDuplicateID, id)
	}
	r.addLocked(m)
	r.mu.Unlock()

	r.startWatchdog()
	// The spec is durable before the submission is acknowledged: a
	// crash after this point re-queues the job on recovery. The payload
	// is kept: compaction, export and resync copy it from here on.
	sub, err := json.Marshal(submittedRec{ID: m.id, Created: m.created, Spec: spec})
	if err == nil {
		m.mu.Lock()
		m.sub = sub
		m.mu.Unlock()
		err = r.journalAppend(journal.TypeSubmitted, m.id, m.fence, sub)
	} else {
		r.count(&r.counters.JournalErrors, 1)
	}
	r.mu.Lock()
	r.settleLocked()
	if err != nil {
		r.unlistLocked(m)
		r.mu.Unlock()
		return JobInfo{}, fmt.Errorf("%w: %v", ErrNotDurable, err)
	}
	r.counters.Admitted++
	r.enqueueLocked(m)
	r.mu.Unlock()
	return r.info(m), nil
}

// addLocked puts a job in the job table, counts its live records and
// reserves a queue slot for it until settleLocked: draining workers and
// DetachQueued wait for every reservation. Caller holds r.mu.
func (r *Registry) addLocked(m *managedJob) {
	r.jobs[m.id] = m
	r.order = append(r.order, m)
	m.mu.Lock()
	r.syncLiveLocked(m)
	m.mu.Unlock()
	r.reserved++
}

// settleLocked releases an addLocked reservation. Caller holds r.mu.
func (r *Registry) settleLocked() {
	r.reserved--
	if r.reserved == 0 {
		r.work.Broadcast()
	}
}

// admitLocked refuses a submission while the node is in a minority
// partition, once the registry is closed, or when the queue, counting
// in-flight admissions, is full. Caller holds r.mu.
func (r *Registry) admitLocked() error {
	switch {
	case r.minority.Load():
		r.counters.MinorityShed++
		return ErrMinority
	case r.closed:
		return ErrClosed
	case len(r.queue)+r.reserved >= r.opts.MaxQueue:
		r.counters.Shed++
		return ErrQueueFull
	}
	return nil
}

// Get returns one job's info.
func (r *Registry) Get(id string) (JobInfo, error) {
	m, ok := r.lookup(id)
	if !ok {
		return JobInfo{}, ErrNotFound
	}
	return r.info(m), nil
}

// View returns one job's info encoded as JSON, as json.Marshal encodes
// what Get returns. A finished job's view is its frozen bytes, shared:
// the caller must not modify them.
func (r *Registry) View(id string) ([]byte, error) {
	m, ok := r.lookup(id)
	if !ok {
		return nil, ErrNotFound
	}
	return r.view(m)
}

// ListViews returns every job's View in submission order.
func (r *Registry) ListViews() ([]json.RawMessage, error) {
	jobs := r.snapshot()
	out := make([]json.RawMessage, 0, len(jobs))
	for _, m := range jobs {
		view, err := r.view(m)
		if err != nil {
			return nil, err
		}
		out = append(out, view)
	}
	return out, nil
}

// CancelView stops a queued or running job and returns its View.
// Cancelling a finished job is a no-op; unknown ids return ErrNotFound.
func (r *Registry) CancelView(id string) ([]byte, error) {
	m, ok := r.lookup(id)
	if !ok {
		return nil, ErrNotFound
	}
	m.halt(false)
	return r.view(m)
}

func (r *Registry) info(m *managedJob) JobInfo {
	m.mu.Lock()
	if f := m.done; f != nil {
		m.mu.Unlock()
		return f.decode()
	}
	defer m.mu.Unlock()
	return r.liveInfoLocked(m)
}

// view encodes a job's info: the frozen bytes once it has finished.
func (r *Registry) view(m *managedJob) ([]byte, error) {
	m.mu.Lock()
	if f := m.done; f != nil {
		m.mu.Unlock()
		return f.view, nil
	}
	info := r.liveInfoLocked(m)
	m.mu.Unlock()
	b, err := json.Marshal(info)
	if err != nil {
		return nil, fmt.Errorf("server: encode job %s: %w", m.id, err)
	}
	return b, nil
}

// liveInfoLocked presents a job that has not finished, in its current
// phase. A job whose run has ended is presented as running, without a
// result, until finish has frozen it: whoever sees a job finished can
// export its completion. Caller holds m.mu.
func (r *Registry) liveInfoLocked(m *managedJob) JobInfo {
	info := JobInfo{
		ID:      m.id,
		Created: m.created,
		Spec:    m.spec,
		Node:    r.opts.NodeID,
		Fence:   m.fence,
	}
	if m.job == nil {
		// Queued: nothing is built yet, so there is no plan to show.
		info.Status = autopipe.JobStatus{State: autopipe.JobQueued, Batches: m.spec.Batches}
		if m.cp != nil {
			info.Status.Iteration = m.cp.Iterations
		}
	} else {
		info.Status = m.job.Status()
		if ended(info.Status.State) {
			info.Status.State, info.Status.Error = autopipe.JobRunning, ""
		}
	}
	if m.overrideReason != "" {
		// The watchdog killed this job: present the cause, not the
		// generic cancelled state the Job reports.
		info.Status.State = m.overrideState
		info.Status.Error = m.overrideReason
	}
	return info
}

// stateLocked is the state a job presents, read without building its
// view. Caller holds m.mu.
func (m *managedJob) stateLocked() autopipe.JobState {
	switch {
	case m.done != nil:
		return m.done.sum.state
	case m.overrideReason != "":
		return m.overrideState
	case m.job == nil:
		return autopipe.JobQueued
	}
	if st := m.job.Status().State; !ended(st) {
		return st
	}
	return autopipe.JobRunning // until finish freezes it
}

// ended reports whether a Job in state st has stopped running.
func ended(st autopipe.JobState) bool {
	return st == autopipe.JobDone || st == autopipe.JobFailed || st == autopipe.JobCancelled
}

// summaries returns every job's summary in submission order: a
// finished job's is frozen with it, a live one's is read off its view.
func (r *Registry) summaries() []jobSummary {
	jobs := r.snapshot()
	out := make([]jobSummary, 0, len(jobs))
	for _, m := range jobs {
		m.mu.Lock()
		var sum summary
		if m.done != nil {
			sum = m.done.sum
		} else {
			info := r.liveInfoLocked(m)
			sum = summarize(&info)
		}
		m.mu.Unlock()
		out = append(out, jobSummary{id: m.id, summary: sum})
	}
	return out
}

// jobSummary is one job's summary under its id.
type jobSummary struct {
	id string
	summary
}

// jobCount is the number of hosted jobs.
func (r *Registry) jobCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.jobs)
}

// StateCounts tallies jobs by lifecycle state.
func (r *Registry) StateCounts() map[autopipe.JobState]int {
	counts := map[autopipe.JobState]int{
		autopipe.JobQueued: 0, autopipe.JobRunning: 0, autopipe.JobDone: 0,
		autopipe.JobFailed: 0, autopipe.JobCancelled: 0,
	}
	for _, m := range r.snapshot() {
		m.mu.Lock()
		counts[m.stateLocked()]++
		m.mu.Unlock()
	}
	return counts
}
