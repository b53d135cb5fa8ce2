package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"autopipe"
	"autopipe/internal/journal"
)

// enqueueLocked appends a job to the run queue and wakes one idle
// worker. Caller holds r.mu.
func (r *Registry) enqueueLocked(m *managedJob) {
	r.queue = append(r.queue, m)
	r.work.Signal()
}

// worker is one of the PoolSize long-lived pool goroutines: it pops the
// oldest queued job and runs it, until the registry is closed and no
// queued or half-admitted job is left. A job popped after Shutdown or
// Kill began is refused — drain must never start fresh work. A
// cancelled queued job keeps its slot until a worker pops it, and is
// then finished without being built.
func (r *Registry) worker() {
	defer r.workers.Done()
	for {
		r.mu.Lock()
		for len(r.queue) == 0 && (!r.closed || r.reserved > 0) {
			r.work.Wait()
		}
		if len(r.queue) == 0 {
			r.mu.Unlock()
			return
		}
		m := r.queue[0]
		r.queue[0] = nil
		r.queue = r.queue[1:]
		r.noteDrainLocked(r.now())
		refuse := r.closed
		if refuse {
			r.counters.DrainRefused++
		}
		r.mu.Unlock()
		r.run(m, refuse)
	}
}

// run takes one popped job through its running and finished phases on
// the calling worker, which is also the goroutine that builds it and
// journals its running record, checkpoints and completion. A job
// cancelled, fenced out or refused before it was popped is never
// built; one cancelled while it is being built is installed, cancelled
// and run, so Run returns before any virtual time elapses. Neither
// writes a running record.
func (r *Registry) run(m *managedJob, refuse bool) {
	m.mu.Lock()
	stop, resumed, cp := m.stop, m.running, m.cp
	m.mu.Unlock()
	switch {
	case refuse:
		r.finish(m, autopipe.JobCancelled, ErrClosed.Error())
		return
	case stop:
		r.finish(m, autopipe.JobCancelled, "")
		return
	}
	j, err := r.newJob(m, resumed, cp)
	if err != nil {
		r.finish(m, autopipe.JobFailed, fmt.Sprintf("build: %v", err))
		return
	}

	m.mu.Lock()
	m.job = j
	stop = m.stop
	if !stop {
		m.running = true
		r.syncLiveLocked(m)
		m.lastIter = 0
		m.lastProgress = r.now()
	}
	m.mu.Unlock()
	if stop {
		j.Cancel()
	} else {
		r.journalAppend(journal.TypeState, m.id, m.fence, runningRec(m.id))
	}

	// A job popped while the node sits in a minority partition starts
	// paused; the double-check closes the race with a concurrent
	// ResumeAll.
	if r.minority.Load() {
		j.Pause()
		if !r.minority.Load() {
			j.Resume()
		}
	}

	// Cancellation flows through Job.Cancel (invoked by the DELETE
	// handler and the watchdog), which aborts the run's internal context
	// mid-search; JobTimeout adds an external deadline on top.
	ctx := context.Background()
	if r.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.opts.JobTimeout)
		defer cancel()
	}
	if _, err := j.Run(ctx); errors.Is(err, context.DeadlineExceeded) {
		r.count(&r.counters.DeadlineKills, 1)
		r.finish(m, autopipe.JobFailed, fmt.Sprintf("job deadline exceeded after %s", r.opts.JobTimeout))
	} else {
		r.finish(m, "", "")
	}
	r.compact(false)
}

// newJob is the registry's one build site: the spec's configuration
// with the registry's hooks wired in, resumed from the checkpoint from
// when the job has one. A job that was running before a recovery or adoption has
// already fired its control-plane chaos events — that is how it got
// here — and re-arming them would crash-loop the daemon (or
// re-partition each successive adopter), so they are stripped.
func (r *Registry) newJob(m *managedJob, resumed bool, from *autopipe.Checkpoint) (*autopipe.Job, error) {
	spec := m.spec
	if resumed {
		spec = stripControlPlaneChaos(spec)
	}
	cfg, batches, err := spec.build()
	if err != nil {
		return nil, err
	}
	if r.opts.CheckpointEvery > 0 {
		cfg.CheckpointEvery = r.opts.CheckpointEvery
		cfg.OnCheckpoint = func(cp autopipe.Checkpoint) {
			r.count(&r.counters.Checkpoints, 1)
			data, err := json.Marshal(checkpointRec{ID: m.id, Checkpoint: cp})
			if err != nil {
				// Keep the last checkpoint that could be journaled.
				r.count(&r.counters.JournalErrors, 1)
				return
			}
			m.mu.Lock()
			m.cp, m.cpRec = &cp, data
			r.syncLiveLocked(m)
			m.mu.Unlock()
			r.journalAppend(journal.TypeCheckpoint, m.id, m.fence, data)
			r.compact(false)
		}
	}
	cfg.DaemonKill = r.opts.DaemonKill
	cfg.PartitionHook = r.opts.PartitionHook
	if r.opts.ConfigureJob != nil {
		r.opts.ConfigureJob(&cfg)
	}
	if from != nil {
		return autopipe.NewJobFromCheckpoint(cfg, batches, *from)
	}
	return autopipe.NewJob(cfg, batches)
}

// finish freezes a job's final view and journals its completion. A set
// state (with its reason) overrides the outcome the job reached. The
// Job, its simulator and its checkpoint are dropped: a finished job is
// its frozen bytes, as a journal-restored one is.
func (r *Registry) finish(m *managedJob, state autopipe.JobState, reason string) {
	m.mu.Lock()
	info := r.liveInfoLocked(m)
	if m.job != nil {
		// The live view presents an ended run as running; the frozen
		// one keeps the outcome the run reached, and its result.
		if m.overrideReason == "" {
			st := m.job.Status()
			info.Status.State, info.Status.Error = st.State, st.Error
		}
		if res, err := m.job.Result(); err == nil {
			info.Result = &res
		}
	}
	if state != "" {
		info.Status.State = state
		info.Status.Error = reason
	}
	f, ok := freeze(m.id, info)
	m.done = f
	m.job, m.cp, m.cpRec = nil, nil, nil
	r.syncLiveLocked(m)
	m.mu.Unlock()
	if !ok {
		r.count(&r.counters.JournalErrors, 1)
	}
	r.journalAppend(journal.TypeCompleted, m.id, m.fence, f.rec)
}

// Depth returns the number of jobs waiting for a pool slot.
func (r *Registry) Depth() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.queue)
}

// noteDrainLocked records one queue departure for the Retry-After
// estimator. Caller holds r.mu.
func (r *Registry) noteDrainLocked(now time.Time) {
	r.drains.times[r.drains.n%drainWindow] = now
	r.drains.n++
}

// RetryAfterSeconds estimates how long a shed client should wait before
// retrying: the current queue depth divided by the recently observed
// drain rate (queue departures per second over the remembered window,
// including the idle time since the last departure, so a stalled pool
// pushes the hint up). Clamped to [MinRetryAfterSec, MaxRetryAfterSec];
// with no drain history yet it falls back to the minimum — one pool
// slot turning over is the natural cold-start horizon.
func (r *Registry) RetryAfterSeconds() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retryAfterLocked(len(r.queue))
}

// retryAfterLocked is RetryAfterSeconds for a given queue depth. Caller
// holds r.mu.
func (r *Registry) retryAfterLocked(depth int) int {
	count := min(r.drains.n, drainWindow)
	if count == 0 || depth == 0 {
		return MinRetryAfterSec
	}
	oldest := r.drains.times[(r.drains.n-count)%drainWindow]
	elapsed := r.now().Sub(oldest).Seconds()
	if elapsed <= 0 {
		return MinRetryAfterSec
	}
	// ceil(depth / rate) with rate = count/elapsed.
	secs := int((float64(depth) * elapsed / float64(count)) + 0.999)
	return min(max(secs, MinRetryAfterSec), MaxRetryAfterSec)
}

// markClosed marks the registry closed, wakes every idle worker so it can
// drain the queue and exit, and stops the watchdog.
func (r *Registry) markClosed() {
	r.mu.Lock()
	already := r.closed
	r.closed = true
	r.work.Broadcast()
	r.mu.Unlock()
	if !already {
		r.watchOnce.Do(func() {}) // ensure no late watchdog start
		close(r.stopWatch)
	}
}

// cancelAll cancels every hosted job.
func (r *Registry) cancelAll() {
	for _, m := range r.snapshot() {
		m.halt(false)
	}
}

// Kill simulates an abrupt daemon death — the in-process equivalent of
// SIGKILL used by the fleet chaos tests. The registry stops accepting
// work, every hosted job's context is cancelled, and, unlike Shutdown,
// nothing further is journaled or streamed to OnRecord: from the
// outside the node's durable state freezes exactly where the "crash"
// caught it. Kill does not wait for the workers to unwind.
func (r *Registry) Kill() {
	if r.killed.Swap(true) {
		return
	}
	r.markClosed()
	r.cancelAll()
}

// Shutdown drains the registry: new submissions are refused, queued
// jobs that reach a worker are refused with ErrClosed, and running jobs
// are given until ctx expires to finish naturally, after which
// everything still alive is cancelled. It always waits for the workers
// to exit and stops the watchdog; the returned error is ctx's if the
// deadline forced cancellation.
func (r *Registry) Shutdown(ctx context.Context) error {
	r.markClosed()
	done := make(chan struct{})
	go func() {
		r.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	r.cancelAll()
	<-done // cancellation is honoured between events, so this is prompt
	return ctx.Err()
}
