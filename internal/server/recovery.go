package server

import (
	"encoding/json"
	"fmt"

	"autopipe"
	"autopipe/internal/journal"
)

// RecoveryStats reports what Recover rebuilt.
type RecoveryStats struct {
	Requeued  int // jobs that were queued: re-queued from their spec
	Resumed   int // running jobs resumed from their last checkpoint
	Restarted int // running jobs without a checkpoint: restarted
	Completed int // finished jobs restored read-only
	Skipped   int // undecodable, orphaned or fence-rejected journal entries
}

// replayJob is one job's state accumulated from a record stream.
type replayJob struct {
	sub     *submittedRec
	running bool
	cp      *autopipe.Checkpoint
	final   *JobInfo
	fence   uint64 // highest fence seen across the job's records
}

// parseReplay folds a record stream into per-job replay state,
// preserving first-seen order. Undecodable records are counted, not
// fatal.
func parseReplay(recs []journal.Record) (map[string]*replayJob, []string, int) {
	byID := map[string]*replayJob{}
	var order []string
	skipped := 0
	get := func(id string, fence uint64) *replayJob {
		p, ok := byID[id]
		if !ok {
			p = &replayJob{}
			byID[id] = p
			order = append(order, id)
		}
		if fence > p.fence {
			p.fence = fence
		}
		return p
	}
	for _, rec := range recs {
		switch rec.Type {
		case journal.TypeSubmitted:
			var sub submittedRec
			if json.Unmarshal(rec.Data, &sub) != nil || sub.ID == "" {
				skipped++
				continue
			}
			get(sub.ID, rec.Fence).sub = &sub
		case journal.TypeState:
			var st stateRec
			if json.Unmarshal(rec.Data, &st) != nil || st.ID == "" {
				skipped++
				continue
			}
			get(st.ID, rec.Fence).running = st.State == autopipe.JobRunning
		case journal.TypeCheckpoint:
			var cp checkpointRec
			if json.Unmarshal(rec.Data, &cp) != nil || cp.ID == "" {
				skipped++
				continue
			}
			get(cp.ID, rec.Fence).cp = &cp.Checkpoint
		case journal.TypeCompleted:
			var done completedRec
			if json.Unmarshal(rec.Data, &done) != nil || done.ID == "" {
				skipped++
				continue
			}
			info := done.Info
			get(done.ID, rec.Fence).final = &info
		default:
			skipped++
		}
	}
	return byID, order, skipped
}

// buildReplayed turns one job's replay state into a managedJob at the
// given fence epoch, updating stats. It returns nil (after counting
// the skip) when the job cannot be rebuilt. Finished jobs come back
// with final set; live jobs carry a ready-to-run *autopipe.Job.
func (r *Registry) buildReplayed(id string, p *replayJob, fence uint64, stats *RecoveryStats) *managedJob {
	m := &managedJob{id: id, created: p.sub.Created, spec: p.sub.Spec, fence: fence}
	if p.final != nil {
		m.final = p.final
		stats.Completed++
		return m
	}
	spec := p.sub.Spec
	if p.running {
		// A KillDaemon or Partition event from this spec already fired —
		// that is how we got here. Re-arming it would crash-loop the
		// daemon (or re-partition each successive adopter).
		spec = stripControlPlaneChaos(spec)
	}
	cfg, batches, err := spec.build()
	if err != nil {
		stats.Skipped++
		return nil
	}
	m.batches = batches
	r.prepare(&cfg, m)
	var j *autopipe.Job
	if p.running && p.cp != nil {
		if j, err = autopipe.NewJobFromCheckpoint(cfg, batches, *p.cp); err == nil {
			stats.Resumed++
		}
	}
	if j == nil {
		if j, err = autopipe.NewJob(cfg, batches); err != nil {
			stats.Skipped++
			return nil
		}
		if p.running {
			stats.Restarted++
		} else {
			stats.Requeued++
		}
	}
	m.job = j
	return m
}

// Recover rebuilds the registry from a journal replay (the records
// returned by journal.Open). It must be called once, before the
// registry serves traffic. Queued jobs are re-queued, running jobs are
// resumed from their last checkpoint (restarted from scratch if none
// was taken), finished jobs are restored read-only, and the journal is
// compacted to the rebuilt state. Consumed chaos KillDaemon events are
// stripped from resumed jobs — the crash they caused already happened.
// Each job keeps the highest fence its records carried, so a recovered
// node re-enters the fleet at its pre-crash ownership epoch.
func (r *Registry) Recover(recs []journal.Record) (RecoveryStats, error) {
	byID, order, skipped := parseReplay(recs)
	stats := RecoveryStats{Skipped: skipped}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return stats, ErrClosed
	}
	if len(r.order) > 0 {
		r.mu.Unlock()
		return stats, fmt.Errorf("server: Recover on a registry that already has jobs")
	}
	r.mu.Unlock()

	var maxSeq int
	for _, id := range order {
		p := byID[id]
		if p.sub == nil {
			stats.Skipped++ // orphaned records: submission was compacted away or torn off
			continue
		}
		var seq int
		if _, err := fmt.Sscanf(id, "job-%d", &seq); err == nil && seq > maxSeq {
			maxSeq = seq
		}
		fence := p.fence
		if fence == 0 {
			fence = 1 // pre-fence journals: treat as first-epoch owners
		}
		m := r.buildReplayed(id, p, fence, &stats)
		if m == nil {
			continue
		}
		if err := r.register(m); err != nil {
			return stats, err
		}
	}
	r.mu.Lock()
	if maxSeq > r.seq {
		r.seq = maxSeq
	}
	r.mu.Unlock()
	r.startWatchdog()
	r.updateRecoveryCounters(stats)
	// Rewrite the journal down to the recovered state: replaying the
	// old history again after the next crash would be wrong (it
	// contains pre-crash state records) and compaction also repairs the
	// truncated-tail bookkeeping.
	r.compact(true)
	return stats, nil
}

// Adopt merges a dead peer's replicated record stream into a LIVE
// registry — the fleet failover path. Unlike Recover it may run at any
// time and re-journals the adopted state locally so it is durable on
// this node and flows onward to the job's next ring successor through
// the OnRecord stream. Running jobs resume from their replicated
// checkpoint with the same deterministic contract Recover provides;
// finished jobs are restored read-only so their results stay visible
// after the owner is gone.
//
// Adoption is fenced: each adopted job's epoch becomes one above the
// highest fence in the incoming stream, so the old owner's copy — and
// any replica of it — is permanently superseded. Streams whose fence
// does not beat a locally hosted copy (or this node's tombstone from a
// previous fence-out) are refused and counted in FenceRejected; an
// incoming stream that DOES beat a locally hosted live copy fences the
// local copy out first, which is how a healed ex-owner converges after
// the majority side re-homed its jobs. Terminal-completed local
// results are never displaced.
func (r *Registry) Adopt(recs []journal.Record) (RecoveryStats, error) {
	byID, order, skipped := parseReplay(recs)
	stats := RecoveryStats{Skipped: skipped}
	for _, id := range order {
		p := byID[id]
		if p.sub == nil {
			stats.Skipped++
			continue
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return stats, ErrClosed
		}
		r.mu.Unlock()
		incoming := p.fence
		if incoming == 0 {
			incoming = 1 // pre-fence streams count as first-epoch
		}
		if local, ok := r.lookup(id); ok {
			if incoming <= local.fence || jobDone(local) {
				// Our copy is at the same or newer epoch (or already
				// finished): the stream is stale.
				r.count(&r.counters.FenceRejected, 1)
				stats.Skipped++
				continue
			}
			if !r.FenceOut(id, incoming) {
				stats.Skipped++
				continue
			}
		} else if tomb, gone := r.tombstone(id); gone && incoming <= tomb {
			// We already ceded this job at that epoch; re-adopting the
			// loser's replica would ping-pong ownership.
			r.count(&r.counters.FenceRejected, 1)
			stats.Skipped++
			continue
		}
		newFence := incoming + 1
		m := r.buildReplayed(id, p, newFence, &stats)
		if m == nil {
			continue
		}
		r.clearTombstone(id)
		if err := r.register(m); err != nil {
			return stats, err
		}
		// Durably re-home the job: its spec, progress and result now
		// live in THIS node's journal and replication stream, stamped
		// with the new ownership epoch.
		r.journalAppend(journal.TypeSubmitted, id, newFence, submittedRec{ID: id, Created: m.created, Spec: m.spec})
		switch {
		case m.final != nil:
			r.journalAppend(journal.TypeCompleted, id, newFence, completedRec{ID: id, Info: *m.final})
		case p.running && p.cp != nil:
			r.journalAppend(journal.TypeState, id, newFence, stateRec{ID: id, State: autopipe.JobRunning})
			r.journalAppend(journal.TypeCheckpoint, id, newFence, checkpointRec{ID: id, Checkpoint: *p.cp})
		}
	}
	r.startWatchdog()
	r.updateRecoveryCounters(stats)
	r.compact(false)
	return stats, nil
}

// register installs a recovered or adopted job; live jobs join the run
// queue. It refuses once the registry is closed, when the workers may
// already have drained the queue and exited.
func (r *Registry) register(m *managedJob) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	sh := r.shard(m.id)
	sh.mu.Lock()
	sh.jobs[m.id] = m
	sh.mu.Unlock()
	r.order = append(r.order, m.id)
	if m.final != nil {
		r.setLive(m, liveFinished)
		return nil
	}
	r.setLive(m, liveQueued)
	r.enqueueLocked(m)
	return nil
}

func (r *Registry) updateRecoveryCounters(stats RecoveryStats) {
	r.mu.Lock()
	r.counters.RecoveredRequeued += int64(stats.Requeued)
	r.counters.RecoveredResumed += int64(stats.Resumed)
	r.counters.RecoveredRestarted += int64(stats.Restarted)
	r.counters.RecoveredCompleted += int64(stats.Completed)
	r.mu.Unlock()
}

// stripControlPlaneChaos removes consumed control-plane chaos events
// (daemon crashes, fleet partitions) from a spec being resumed. The
// simulated-fabric kinds are kept: they replay deterministically inside
// the fresh engine without touching the daemon hosting it.
func stripControlPlaneChaos(spec JobSpec) JobSpec {
	if len(spec.Chaos) == 0 {
		return spec
	}
	kept := make([]ChaosEventSpec, 0, len(spec.Chaos))
	for _, ev := range spec.Chaos {
		if ev.Kind != chaosKindKillDaemon && ev.Kind != chaosKindPartition {
			kept = append(kept, ev)
		}
	}
	spec.Chaos = kept
	return spec
}
