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

// replayJob is one job's state accumulated from a record stream, with
// the payloads the rebuilt job keeps.
type replayJob struct {
	sub     *submittedRec
	subRec  []byte
	running bool
	cp      *autopipe.Checkpoint
	cpRec   []byte
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
			p := get(sub.ID, rec.Fence)
			p.sub, p.subRec = &sub, rec.Data
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
			p := get(cp.ID, rec.Fence)
			p.cp, p.cpRec = &cp.Checkpoint, rec.Data
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

// replayed turns one job's replay state into a managedJob at the given
// fence epoch, updating stats. It keeps the replayed payloads. A
// finished job comes back frozen; a live one comes back queued with its
// replay state, for the worker that pops it to build. It returns nil
// (after counting the skip) for a spec that no longer validates. A
// checkpoint the resume would refuse is dropped here, so the job counts
// as, and is, restarted.
func (r *Registry) replayed(id string, p *replayJob, fence uint64, stats *RecoveryStats) *managedJob {
	m := &managedJob{id: id, created: p.sub.Created, spec: p.sub.Spec, fence: fence, sub: p.subRec}
	if p.final != nil {
		m.done = r.restore(id, *p.final, fence)
		stats.Completed++
		return m
	}
	cfg, batches, err := m.spec.build()
	switch {
	case err != nil:
		stats.Skipped++
		return nil
	case !p.running:
		stats.Requeued++
	case p.cp != nil && p.cp.Iterations < batches &&
		p.cp.Validate(cfg.Model.NumLayers(), cfg.Cluster.NumGPUs()) == nil:
		m.running, m.cp, m.cpRec = true, p.cp, p.cpRec
		stats.Resumed++
	default:
		m.running = true
		stats.Restarted++
	}
	return m
}

// Recover rebuilds the registry from a journal replay (the records
// returned by journal.Open). It must be called once, before the
// registry serves traffic. Finished jobs are restored read-only. Every
// live job is re-queued as its spec plus its replay state, and the
// worker that pops it builds it: a queued job from scratch, a running
// one resumed from its last checkpoint (restarted from scratch if none
// was taken), with its consumed chaos KillDaemon events stripped — the
// crash they caused already happened. The journal is then compacted to
// the rebuilt state, which keeps a queued resume's running record and
// checkpoint. Each job keeps the highest fence its records carried, so
// a recovered node re-enters the fleet at its pre-crash ownership
// epoch.
func (r *Registry) Recover(recs []journal.Record) (RecoveryStats, error) {
	byID, order, skipped := parseReplay(recs)
	stats := RecoveryStats{Skipped: skipped}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return stats, ErrClosed
	}
	if len(r.jobs) > 0 {
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
		m := r.replayed(id, p, fence, &stats)
		if m == nil {
			continue
		}
		if err := r.register(m, false); err != nil {
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
// the majority side re-homed its jobs. A local copy in the done state is
// never displaced.
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
			if incoming <= local.fence || r.jobDone(local) {
				// Our copy is at the same or newer epoch (or done): the
				// stream is stale.
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
		m := r.replayed(id, p, newFence, &stats)
		if m == nil {
			continue
		}
		r.clearTombstone(id)
		if err := r.register(m, true); err != nil {
			return stats, err
		}
	}
	r.startWatchdog()
	r.updateRecoveryCounters(stats)
	r.compact(false)
	return stats, nil
}

// register installs a recovered or adopted job; a live one joins the
// run queue. With rejournal, the job is durably re-homed first: what
// exportRecords emits for it — its spec with its replay state or
// result, stamped with its fence — is appended to this node's journal
// and replication stream before a worker can add records of its own.
// register refuses once the registry is closed, when the workers may
// already have drained the queue and exited.
func (r *Registry) register(m *managedJob, rejournal bool) error {
	live := m.done == nil // read before other goroutines can see m
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	r.addLocked(m)
	r.mu.Unlock()
	if rejournal {
		for _, rec := range r.exportRecords([]*managedJob{m}) {
			r.journalAppend(rec.Type, rec.JobID, rec.Fence, rec.Data)
		}
	}
	r.mu.Lock()
	r.settleLocked()
	if live {
		r.enqueueLocked(m)
	}
	r.mu.Unlock()
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
