package server

import (
	"encoding/json"
	"time"

	"autopipe"
	"autopipe/internal/journal"
)

// Journal record payloads. Each is self-contained JSON so the journal
// stays inspectable with standard tools.
type submittedRec struct {
	ID      string    `json:"id"`
	Created time.Time `json:"created_at"`
	Spec    JobSpec   `json:"spec"`
}

type stateRec struct {
	ID     string            `json:"id"`
	State  autopipe.JobState `json:"state"`
	Reason string            `json:"reason,omitempty"`
}

type checkpointRec struct {
	ID         string              `json:"id"`
	Checkpoint autopipe.Checkpoint `json:"checkpoint"`
}

type completedRec struct {
	ID   string  `json:"id"`
	Info JobInfo `json:"info"`
}

// runningRec is the payload of a job's running record.
func runningRec(id string) []byte {
	data, _ := json.Marshal(stateRec{ID: id, State: autopipe.JobRunning}) // strings always encode
	return data
}

// journalAppend fsyncs one record's payload, and counts and returns
// a failure. Only admission acts on the error; every other record is
// count-and-continue, so the registry keeps serving with degraded
// durability. Callers must not hold r.mu (fsync under the registry lock
// would stall the whole API). The OnRecord hook observes every record,
// journal or not, so fleet replication works on journal-less registries
// too, and a record whose append failed, since the job keeps the state
// the record describes — but for a submitted record. A refused
// admission unlists its job, so its record must not be replicated; an
// adopted or recovered job re-journaled by register stays listed, and
// its withheld submitted record reaches its successor with the next
// resync, which sends any job its successor has not acknowledged
// whole. Records at or below a job's fence tombstone, and everything
// after Kill, are discarded: a stale copy's output must not reach disk
// or the replication stream. data is shared with the journal's caller
// and OnRecord, so nobody may modify it.
func (r *Registry) journalAppend(typ journal.Type, id string, fence uint64, data []byte) error {
	if (r.opts.Journal == nil && r.opts.OnRecord == nil) || r.killed.Load() {
		return nil
	}
	if tomb, gone := r.tombstone(id); gone && fence <= tomb {
		return nil
	}
	r.jmu.RLock()
	defer r.jmu.RUnlock()
	var err error
	rec := journal.Record{Type: typ, JobID: id, Fence: fence, Data: data}
	if r.opts.Journal != nil {
		err = r.opts.Journal.Append(rec)
	}
	if (err == nil || typ != journal.TypeSubmitted) && r.opts.OnRecord != nil {
		r.opts.OnRecord(rec)
	}
	if err != nil {
		r.count(&r.counters.JournalErrors, 1)
	}
	return err
}

// compact rewrites the journal down to the live state. Unforced, it
// fires only once history spreads over several segments or — during
// steady-state operation — once fewer than compactLiveRatio of the
// journaled records are still live (completed jobs and superseded
// checkpoints dominate the log). Recover forces it to drop pre-crash
// history, and FenceOut to guarantee a fenced job's stale tail is gone
// the moment ownership transfer is acknowledged. The unforced trigger
// is checked before taking jmu, so the common no-op costs appenders
// nothing, and again under it.
func (r *Registry) compact(force bool) {
	if r.opts.Journal == nil || r.killed.Load() {
		return
	}
	if !force && !r.wantsCompaction() {
		return
	}
	r.jmu.Lock()
	defer r.jmu.Unlock()
	if !force && !r.wantsCompaction() {
		return
	}
	if err := r.opts.Journal.Compact(r.exportRecords(r.snapshot())); err != nil {
		r.count(&r.counters.JournalErrors, 1)
	}
}

// wantsCompaction is the unforced trigger: history spans
// compactAfterSegments segments, or the journal holds enough records to
// be worth rewriting and less than compactLiveRatio of them is still
// live. The live count is the running total syncLiveLocked keeps, so the check
// is O(1) however many jobs the registry has admitted.
func (r *Registry) wantsCompaction() bool {
	if r.opts.Journal.Segments() >= compactAfterSegments {
		return true
	}
	total := r.opts.Journal.Records()
	return total >= compactMinRecords && float64(r.live.Load()) < compactLiveRatio*float64(total)
}

// recordsLocked is how many records exportRecords emits for the job in
// its current phase: its submission and completion once finished,
// otherwise its submission plus any running state and checkpoint.
// Caller holds m.mu.
func (m *managedJob) recordsLocked() int {
	if m.done != nil {
		return 2
	}
	n := 1
	if m.running {
		n++
	}
	if m.cp != nil {
		n++
	}
	return n
}

// syncLiveLocked moves a job's share of Registry.live to its current
// record count. Callers change a job's phase and sync in one m.mu
// critical section. A job that has left the registry stays out however
// late its worker reports. Caller holds m.mu.
func (r *Registry) syncLiveLocked(m *managedJob) {
	if m.live >= 0 {
		n := m.recordsLocked()
		r.live.Add(int64(n - m.live))
		m.live = n
	}
}

// dropLive removes an unregistered, fenced-out or detached job's
// records from Registry.live for good.
func (r *Registry) dropLive(m *managedJob) {
	m.mu.Lock()
	if m.live > 0 {
		r.live.Add(-int64(m.live))
	}
	m.live = -1
	m.mu.Unlock()
}

// ExportRecords renders the live record stream for the given job IDs
// in the order given (every job, in submission order, when none are
// given): the same compact form compaction writes and Recover/Adopt
// replay. Unknown ids are skipped. The fleet layer uses it to
// full-sync a job's durable state to its ring successor. Every record
// carries the job's current fence epoch, so receivers can refuse
// stale-owner streams.
func (r *Registry) ExportRecords(ids ...string) []journal.Record {
	if len(ids) == 0 {
		return r.exportRecords(r.snapshot())
	}
	jobs := make([]*managedJob, 0, len(ids))
	r.mu.Lock()
	for _, id := range ids {
		if m, ok := r.jobs[id]; ok {
			jobs = append(jobs, m)
		}
	}
	r.mu.Unlock()
	return r.exportRecords(jobs)
}

// exportRecords renders the current state of the given jobs as a
// compact record stream: one submission per job,
// plus its final result, or else the running state and latest
// checkpoint it has — a queued job recovered or adopted mid-run keeps
// them. Replaying it is equivalent to replaying the full history. Each
// payload but a running record is the one the job journaled, shared as
// it is. A job still journaling its admission is left out: its own
// append follows any compaction this export feeds.
func (r *Registry) exportRecords(jobs []*managedJob) []journal.Record {
	var out []journal.Record
	for _, m := range jobs {
		m.mu.Lock()
		sub, done, running, cpRec := m.sub, m.done, m.running, m.cpRec
		m.mu.Unlock()
		if sub == nil {
			continue
		}
		emit := func(typ journal.Type, data []byte) {
			out = append(out, journal.Record{Type: typ, JobID: m.id, Fence: m.fence, Data: data})
		}
		emit(journal.TypeSubmitted, sub)
		if done != nil {
			emit(journal.TypeCompleted, done.rec)
			continue
		}
		if running {
			emit(journal.TypeState, runningRec(m.id))
		}
		if cpRec != nil {
			emit(journal.TypeCheckpoint, cpRec)
		}
	}
	return out
}
