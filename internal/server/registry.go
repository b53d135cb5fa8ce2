// Package server is the autopiped control plane: a concurrency-safe
// registry hosting many simulated AutoPipe jobs on a bounded worker
// pool, a JSON REST API over net/http, and a Prometheus text-format
// metrics surface. See cmd/autopiped for the daemon binary.
//
// The registry is durable and overload-safe: submissions beyond a
// bounded admission queue are shed with ErrQueueFull, every accepted
// job is journaled (spec, state transitions, periodic controller
// checkpoints, final result) through an fsync'd write-ahead log, a
// watchdog cancels jobs that stop making progress, and Recover rebuilds
// the registry from the journal after a crash — re-queueing jobs that
// were queued and resuming running jobs from their last checkpoint.
//
// It is also partition-aware: job ownership carries a monotonically
// increasing fence epoch (bumped on every adoption) that lets a healed
// ex-owner recognise that another node took over and abandon its stale
// copy, and SetMinority switches the registry into a shedding mode —
// submissions refused with ErrMinority, running jobs paused at their
// next event boundary — while the node is cut off from the fleet
// majority.
package server

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"autopipe"
	"autopipe/internal/journal"
)

// ErrClosed is returned by Submit after Shutdown has begun.
var ErrClosed = errors.New("server: registry is shutting down")

// ErrNotFound is returned for unknown job ids.
var ErrNotFound = errors.New("server: no such job")

// ErrQueueFull is returned by Submit when the admission queue is at
// capacity; the HTTP layer maps it to 429 + Retry-After.
var ErrQueueFull = errors.New("server: admission queue full")

// ErrMinority is returned by Submit while the node is partitioned away
// from the fleet majority; the HTTP layer maps it to 503 + Retry-After.
var ErrMinority = errors.New("server: node is in a minority partition")

// ErrNotDurable is returned by Submit when the submission could not be
// journaled; the job is not registered and the HTTP layer maps it to
// 503.
var ErrNotDurable = errors.New("server: submission could not be made durable")

// Defaults for Options zero values, and the registry's fixed tuning.
const (
	// DefaultMaxQueue bounds jobs waiting for a pool slot.
	DefaultMaxQueue = 1024
	// DefaultCheckpointEvery is the controller checkpoint cadence in
	// iterations.
	DefaultCheckpointEvery = 25
	// DefaultWatchdogQuiet is how long a running job may go without
	// completing an iteration before the watchdog cancels it.
	DefaultWatchdogQuiet = 2 * time.Minute
	// compactAfterSegments triggers journal compaction once history
	// spreads over this many segment files.
	compactAfterSegments = 4
	// compactMinRecords is the journal size (in records) below which the
	// steady-state live/total ratio trigger never fires.
	compactMinRecords = 64
	// compactLiveRatio triggers steady-state compaction once fewer than
	// this fraction of journaled records are still live.
	compactLiveRatio = 0.5
	// drainWindow is how many recent queue departures the Retry-After
	// estimator remembers.
	drainWindow = 64
	// MinRetryAfterSec / MaxRetryAfterSec clamp the 429 Retry-After
	// hint derived from queue depth and drain rate.
	MinRetryAfterSec = 1
	MaxRetryAfterSec = 30
)

// Options parametrises a Registry.
type Options struct {
	// PoolSize is the maximum number of concurrently simulating jobs
	// (minimum 1).
	PoolSize int
	// MaxQueue bounds jobs waiting for a pool slot; submissions beyond
	// it are shed with ErrQueueFull (default DefaultMaxQueue).
	MaxQueue int
	// CheckpointEvery is the controller checkpoint cadence in
	// iterations (default DefaultCheckpointEvery; negative disables).
	CheckpointEvery int
	// Journal, when non-nil, makes every job durable: specs, state
	// transitions, checkpoints and results are fsync'd through it. The
	// registry does not close the journal.
	Journal *journal.Journal
	// JobTimeout is a per-job wall-clock deadline propagated into the
	// Job.Run context (0 = none).
	JobTimeout time.Duration
	// WatchdogQuiet is the no-progress period after which a running job
	// is cancelled and marked failed (0 = DefaultWatchdogQuiet,
	// negative disables the watchdog). The watchdog scans four times per
	// period. The daemon clamps its flag to [5s, 10m]; the registry
	// accepts any positive value for tests.
	WatchdogQuiet time.Duration
	// DaemonKill is the chaos KillDaemon hook installed on every hosted
	// job (see autopipe.ChaosKillDaemon).
	DaemonKill func()
	// PartitionHook is the chaos Partition hook installed on every
	// hosted job (see autopipe.ChaosPartition) — fleet partition tests
	// use it to sever peer links at a deterministic simulation point.
	PartitionHook func()
	// ConfigureJob, when non-nil, can adjust each job's configuration
	// after the spec is built (custom predictors, arbiter wiring). It
	// runs on the worker that builds the job, once for every job that
	// runs, and never for a job that is shed, refused or cancelled
	// before a worker reaches it.
	ConfigureJob func(*autopipe.JobConfig)
	// NodeID names this registry's daemon in a multi-node fleet; when
	// set, every JobInfo carries it so cluster-wide listings show which
	// node owns each job.
	NodeID string
	// OnRecord observes every journal record the registry produces
	// (whether or not a Journal is configured or the append succeeded;
	// a submitted record only once journaled) — the fleet layer streams them
	// to the job's ring successor. It is invoked with an internal
	// lock held, possibly from many workers at once: it must be
	// fast, safe for concurrent use, and must not call back into the
	// registry.
	OnRecord func(journal.Record)
}

// Counters aggregates registry-level activity for /metrics and tests.
type Counters struct {
	Admitted           int64 // submissions accepted
	Shed               int64 // submissions refused with ErrQueueFull
	MinorityShed       int64 // submissions refused while in a minority partition
	DrainRefused       int64 // queued jobs refused a pool slot mid-drain
	WatchdogKills      int64 // jobs cancelled for lack of progress
	DeadlineKills      int64 // jobs cancelled by JobTimeout
	Checkpoints        int64 // controller checkpoints taken
	JournalErrors      int64 // failed journal appends/compactions
	RecoveredRequeued  int64 // queued jobs re-queued by Recover
	RecoveredResumed   int64 // running jobs resumed from a checkpoint
	RecoveredRestarted int64 // running jobs restarted without one
	RecoveredCompleted int64 // finished jobs restored read-only
	FencedOut          int64 // local job copies abandoned to a higher fence epoch
	FenceRejected      int64 // stale-fence adoption streams refused
}

// Registry owns the daemon's jobs. Admitted jobs wait in one FIFO run
// queue, and PoolSize long-lived workers pop and simulate them, so at
// most PoolSize jobs run at once and the rest report the queued state.
// All methods are safe for concurrent use. Lock order, where several
// are held together: jmu → mu → managedJob.mu; fencedMu is a leaf.
type Registry struct {
	opts Options

	mu sync.Mutex
	// jobs and order are the job table: every hosted job by id, and the
	// same jobs in submission order for listings and full walks.
	jobs  map[string]*managedJob
	order []*managedJob
	seq   int
	// queue holds the jobs waiting for a worker, oldest first; reserved
	// counts admissions that claimed a queue slot and are still
	// journaling their submission. Together they bound MaxQueue.
	queue    []*managedJob
	reserved int
	closed   bool
	counters Counters
	// work (on r.mu) wakes one idle worker when a job is queued, and
	// every waiter on close and when the last in-flight admission settles.
	work    sync.Cond
	workers sync.WaitGroup

	// killed marks an abrupt death: all journal/replication output is
	// suppressed.
	killed atomic.Bool

	// live is the number of records exportRecords would emit: the
	// compaction trigger's numerator, kept by syncLiveLocked and
	// dropLive.
	live atomic.Int64

	// minority flips the registry into partition-shedding mode: see
	// SetMinority.
	minority atomic.Bool

	// fenced tombstones jobs this node abandoned to a higher fence
	// epoch: journal/replication output at or below the recorded epoch
	// is suppressed so a stale copy can never leak post-fence records.
	fencedMu sync.Mutex
	fenced   map[string]uint64

	// jmu excludes journal appends against compaction so a record can
	// never land in a segment that a concurrent Compact deletes.
	// Appends take the read side, so concurrent jobs reach the journal
	// together and its group commit shares one fsync among them.
	jmu sync.RWMutex

	// drains is a ring of recent queue-departure times; RetryAfterSeconds
	// derives the 429 Retry-After hint from it. Guarded by mu.
	drains struct {
		times [drainWindow]time.Time
		n     int
	}

	watchOnce sync.Once
	stopWatch chan struct{}

	// now is stubbed in tests.
	now func() time.Time
}

// managedJob is one hosted job. It is in one of three phases, each
// held in one place: queued (the spec plus its replay state, no Job),
// running (job, built by the worker that popped it) and finished (its
// frozen bytes; the Job is dropped).
type managedJob struct {
	// Immutable after registration.
	id      string
	created time.Time
	spec    JobSpec
	fence   uint64 // ownership epoch: 1 on first admission, bumped on adoption

	// mu guards everything below. Nothing but the Job's own lock is
	// acquired while holding it.
	mu sync.Mutex
	// sub is the submitted record's payload, encoded once: set by
	// admission before it journals the record (nil until then), or kept
	// from the replayed record. It is never modified.
	sub  []byte
	job  *autopipe.Job // non-nil only while the job runs
	done *frozen       // the finished job, once it has finished
	// running, cp and cpRec are the job's durable replay state: whether
	// its running record was journaled (by this registry or before a
	// recovery or adoption), and its latest journaled checkpoint with
	// that record's payload. The worker resumes from cp; exportRecords
	// emits the running record and cpRec.
	running bool
	cp      *autopipe.Checkpoint
	cpRec   []byte
	// stop records a cancel, FenceOut or Kill that reached the job
	// before its worker installed a Job. The worker skips the build, or
	// cancels the Job it has just built before Run.
	stop           bool
	overrideState  autopipe.JobState // presented state when the watchdog killed the job
	overrideReason string
	lastIter       int       // watchdog progress marker
	lastProgress   time.Time // when lastIter last advanced
	// live is this job's share of Registry.live; -1 once the job has
	// left the registry.
	live int
}

// current returns the job's Job while it runs, nil otherwise.
func (m *managedJob) current() *autopipe.Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.job
}

// halt cancels the job, or with abort cancels it and rolls back any
// in-flight switch. A job without a Job yet records the request for
// its worker; it has no switch to roll back.
func (m *managedJob) halt(abort bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case m.job == nil:
		m.stop = true // read only by a worker that has not built the job
	case abort:
		m.job.Abort()
	default:
		m.job.Cancel()
	}
}

// NewRegistry builds a registry running at most poolSize simulations
// concurrently (minimum 1), with default overload protection and no
// journal.
func NewRegistry(poolSize int) *Registry {
	return NewRegistryWithOptions(Options{PoolSize: poolSize})
}

// NewRegistryWithOptions builds a registry from opts (zero values take
// the documented defaults) and starts its PoolSize workers.
func NewRegistryWithOptions(opts Options) *Registry {
	if opts.PoolSize < 1 {
		opts.PoolSize = 1
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = DefaultMaxQueue
	}
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = DefaultCheckpointEvery
	}
	opts.CheckpointEvery = max(opts.CheckpointEvery, 0) // negative disables
	if opts.WatchdogQuiet == 0 {
		opts.WatchdogQuiet = DefaultWatchdogQuiet
	}
	opts.WatchdogQuiet = max(opts.WatchdogQuiet, 0) // negative disables
	r := &Registry{
		opts:      opts,
		jobs:      map[string]*managedJob{},
		fenced:    map[string]uint64{},
		stopWatch: make(chan struct{}),
		now:       time.Now,
	}
	r.work.L = &r.mu
	r.workers.Add(opts.PoolSize)
	for i := 0; i < opts.PoolSize; i++ {
		go r.worker()
	}
	return r
}

// lookup fetches one hosted job.
func (r *Registry) lookup(id string) (*managedJob, bool) {
	r.mu.Lock()
	m, ok := r.jobs[id]
	r.mu.Unlock()
	return m, ok
}

// snapshot copies the job table in submission order.
func (r *Registry) snapshot() []*managedJob {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.order)
}

// unlistLocked takes jobs out of the job table for good, with their
// live records. Caller holds r.mu.
func (r *Registry) unlistLocked(gone ...*managedJob) {
	for _, m := range gone {
		delete(r.jobs, m.id)
		r.dropLive(m)
	}
	r.order = slices.DeleteFunc(r.order, func(m *managedJob) bool { return r.jobs[m.id] != m })
}

// PoolSize returns the maximum number of concurrently running jobs.
func (r *Registry) PoolSize() int { return r.opts.PoolSize }

// MaxQueue returns the admission-queue bound.
func (r *Registry) MaxQueue() int { return r.opts.MaxQueue }

// Counters returns a snapshot of the registry's activity counters.
func (r *Registry) Counters() Counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters
}

// count bumps one counter under r.mu.
func (r *Registry) count(c *int64, n int64) {
	r.mu.Lock()
	*c += n
	r.mu.Unlock()
}

// JournalStats reports the journal's counters; ok is false when the
// registry runs without one.
func (r *Registry) JournalStats() (journal.Stats, bool) {
	if r.opts.Journal == nil {
		return journal.Stats{}, false
	}
	return r.opts.Journal.Stats(), true
}

// JournalSegments returns the journal's live segment count (0 without a
// journal).
func (r *Registry) JournalSegments() int {
	if r.opts.Journal == nil {
		return 0
	}
	return r.opts.Journal.Segments()
}
