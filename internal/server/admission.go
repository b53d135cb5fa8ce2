package server

import (
	"errors"
	"fmt"
	"slices"

	"autopipe"
	"autopipe/internal/journal"
)

// ErrDuplicateID is returned by SubmitWithID for an ID already hosted.
var ErrDuplicateID = errors.New("server: job id already exists")

// Submit validates the spec, builds the job, journals it and queues it
// for the pool. Submissions beyond the admission queue are refused with
// ErrQueueFull; submissions after Shutdown with ErrClosed; a submission
// whose spec cannot be journaled with ErrNotDurable.
func (r *Registry) Submit(spec JobSpec) (JobInfo, error) {
	return r.SubmitWithID("", spec)
}

// SubmitWithID is Submit with a caller-assigned job ID — the fleet
// layer assigns globally unique IDs at the gateway node so the
// consistent-hash ring can place jobs before they reach their owner. An
// empty ID draws from the registry's own sequence.
//
// A minority node, a closed registry or a full queue refuses before
// the spec is built, so shedding costs no job build, and an invalid
// spec sent while the queue is full gets ErrQueueFull, not a
// validation error. A nil error means the job is durable: it holds a
// queue slot while its submission is journaled and joins the run queue
// only after; if the append fails it is unregistered again.
func (r *Registry) SubmitWithID(id string, spec JobSpec) (JobInfo, error) {
	r.mu.Lock()
	err := r.admitLocked()
	r.mu.Unlock()
	if err != nil {
		return JobInfo{}, err
	}
	cfg, batches, err := spec.build()
	if err != nil {
		return JobInfo{}, fmt.Errorf("invalid job spec: %w", err)
	}
	m := &managedJob{spec: spec, batches: batches, fence: 1}
	r.prepare(&cfg, m)
	j, err := autopipe.NewJob(cfg, batches)
	if err != nil {
		return JobInfo{}, fmt.Errorf("invalid job spec: %w", err)
	}
	m.job = j

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
	sh := r.shard(id)
	sh.mu.Lock()
	if _, ok := sh.jobs[id]; ok || gone {
		sh.mu.Unlock()
		r.mu.Unlock()
		return JobInfo{}, fmt.Errorf("%w: %s", ErrDuplicateID, id)
	}
	sh.jobs[id] = m
	sh.mu.Unlock()
	r.setLive(m, liveQueued)
	r.order = append(r.order, m.id)
	r.reserved++
	r.mu.Unlock()

	r.startWatchdog()
	// The spec is durable before the submission is acknowledged: a
	// crash after this point re-queues the job on recovery.
	err = r.journalAppend(journal.TypeSubmitted, m.id, m.fence, submittedRec{ID: m.id, Created: m.created, Spec: spec})
	r.mu.Lock()
	r.reserved--
	if r.reserved == 0 { // draining workers and DetachQueued wait for this
		r.work.Broadcast()
	}
	if err != nil {
		sh.mu.Lock()
		delete(sh.jobs, id)
		sh.mu.Unlock()
		r.dropLive(m)
		r.order = slices.DeleteFunc(r.order, func(oid string) bool { return oid == id })
		r.mu.Unlock()
		return JobInfo{}, fmt.Errorf("%w: %v", ErrNotDurable, err)
	}
	r.counters.Admitted++
	r.enqueueLocked(m)
	r.mu.Unlock()
	return r.info(m), nil
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

// prepare wires the registry's per-job hooks into a built JobConfig.
// m.id may not be assigned yet; the hooks only fire once the job runs.
func (r *Registry) prepare(cfg *autopipe.JobConfig, m *managedJob) {
	if r.opts.CheckpointEvery > 0 {
		cfg.CheckpointEvery = r.opts.CheckpointEvery
		cfg.OnCheckpoint = func(cp autopipe.Checkpoint) {
			r.count(&r.counters.Checkpoints, 1)
			r.setLive(m, liveCheckpoint)
			r.journalAppend(journal.TypeCheckpoint, m.id, m.fence, checkpointRec{ID: m.id, Checkpoint: cp})
			r.compact(false)
		}
	}
	cfg.DaemonKill = r.opts.DaemonKill
	cfg.PartitionHook = r.opts.PartitionHook
	if r.opts.ConfigureJob != nil {
		r.opts.ConfigureJob(cfg)
	}
}

// Get returns one job's info.
func (r *Registry) Get(id string) (JobInfo, error) {
	m, ok := r.lookup(id)
	if !ok {
		return JobInfo{}, ErrNotFound
	}
	return r.info(m), nil
}

// List returns every job in submission order.
func (r *Registry) List() []JobInfo {
	order := r.snapshotOrder()
	out := make([]JobInfo, 0, len(order))
	for _, id := range order {
		if m, ok := r.lookup(id); ok {
			out = append(out, r.info(m))
		}
	}
	return out
}

// Cancel stops a queued or running job. Cancelling a finished job is a
// no-op; unknown ids return ErrNotFound.
func (r *Registry) Cancel(id string) (JobInfo, error) {
	m, ok := r.lookup(id)
	if !ok {
		return JobInfo{}, ErrNotFound
	}
	if m.job != nil {
		m.job.Cancel()
	}
	return r.info(m), nil
}

func (r *Registry) info(m *managedJob) JobInfo {
	if m.final != nil {
		info := *m.final
		// A journal-restored (or adopted) result lives wherever it was
		// rebuilt: present the current host, not the original owner.
		if r.opts.NodeID != "" {
			info.Node = r.opts.NodeID
		}
		info.Fence = m.fence
		return info
	}
	info := JobInfo{
		ID:      m.id,
		Created: m.created,
		Spec:    m.spec,
		Node:    r.opts.NodeID,
		Fence:   m.fence,
		Status:  m.job.Status(),
	}
	if res, err := m.job.Result(); err == nil {
		info.Result = &res
	}
	m.mu.Lock()
	if m.overrideReason != "" {
		// The registry killed (or refused) this job: present the cause,
		// not the generic cancelled state the Job reports.
		info.Status.State = m.overrideState
		info.Status.Error = m.overrideReason
	}
	m.mu.Unlock()
	return info
}

// StateCounts tallies jobs by lifecycle state.
func (r *Registry) StateCounts() map[autopipe.JobState]int {
	counts := map[autopipe.JobState]int{
		autopipe.JobQueued: 0, autopipe.JobRunning: 0, autopipe.JobDone: 0,
		autopipe.JobFailed: 0, autopipe.JobCancelled: 0,
	}
	for _, info := range r.List() {
		counts[info.Status.State]++
	}
	return counts
}
