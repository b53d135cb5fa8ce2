package server

import (
	"context"
	"encoding/json"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autopipe"
	"autopipe/internal/journal"
)

// recordTypes lists the types of one job's records, in order.
func recordTypes(recs []journal.Record, id string) []journal.Type {
	var out []journal.Type
	for _, rec := range recs {
		if rec.JobID == id {
			out = append(out, rec.Type)
		}
	}
	return out
}

// parkFirst returns a ConfigureJob hook that parks the first job it
// configures in that job's first checkpoint, after the registry has
// journaled it, until release is called. A registry using it must be
// released before it is drained.
func parkFirst() (hook func(*autopipe.JobConfig), parked <-chan struct{}, release func()) {
	p, unpark := make(chan struct{}), make(chan struct{})
	var first, park sync.Once
	release = sync.OnceFunc(func() { close(unpark) })
	hook = func(cfg *autopipe.JobConfig) {
		first.Do(func() {
			journaled := cfg.OnCheckpoint
			cfg.OnCheckpoint = func(cp autopipe.Checkpoint) {
				journaled(cp)
				park.Do(func() {
					close(p)
					<-unpark
				})
			}
		})
	}
	return hook, p, release
}

// resumeRecords is what a job resumed mid-run exports: its submission,
// its running state and its latest checkpoint.
var resumeRecords = []journal.Type{journal.TypeSubmitted, journal.TypeState, journal.TypeCheckpoint}

// TestRecoverTwiceKeepsResume: a job recovered mid-run keeps its
// running record and checkpoint while it waits in the queue, so the
// compaction Recover forces does not throw them away. A second crash
// and recovery then resumes it again from the same checkpoint —
// instead of re-queueing it from scratch with its consumed kill_daemon
// event armed again — and it finishes with the first recovery's
// decision stream.
func TestRecoverTwiceKeepsResume(t *testing.T) {
	dir := t.TempDir()
	liveDir := filepath.Join(dir, "live")
	onceDir := filepath.Join(dir, "once")   // recovered once, run to the end
	twiceDir := filepath.Join(dir, "twice") // recovered, crashed again, recovered

	jl, _, err := journal.Open(liveDir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	// The long job parks in its first checkpoint so the crash image
	// holds it running and checkpointed, and nothing appends while the
	// image is copied.
	parkLong, parked, release := parkFirst()
	crashed := make(chan struct{})
	var once sync.Once
	r := NewRegistryWithOptions(Options{
		PoolSize: 2, CheckpointEvery: 2, Journal: jl,
		ConfigureJob: func(cfg *autopipe.JobConfig) {
			offOptimum(cfg)
			if cfg.Chaos == nil {
				parkLong(cfg)
			}
		},
		DaemonKill: func() {
			once.Do(func() {
				copyDir(t, liveDir, onceDir)
				copyDir(t, liveDir, twiceDir)
				close(crashed)
			})
			runtime.Goexit()
		},
	})
	t.Cleanup(func() { release(); drain(t, r) })
	long, err := r.Submit(hugeSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-parked
	crash, err := r.Submit(crashSpec())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-crashed:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon-kill chaos event never fired")
	}
	release()
	drain(t, r)

	// killHook counts kill_daemon events that fire after a recovery:
	// each was consumed by the first crash and must stay stripped.
	var fired atomic.Int64
	recoverFrom := func(dir string, pool int) (*Registry, *journal.Journal, RecoveryStats) {
		t.Helper()
		jl, recs, err := journal.Open(dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		r := NewRegistryWithOptions(Options{
			PoolSize: pool, CheckpointEvery: 2, Journal: jl, ConfigureJob: offOptimum,
			DaemonKill: func() { fired.Add(1) },
		})
		stats, err := r.Recover(recs)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Resumed != 2 || stats.Requeued+stats.Restarted != 0 {
			t.Errorf("recovery stats = %+v, want both jobs resumed", stats)
		}
		return r, jl, stats
	}
	decisions := func(info JobInfo) string {
		t.Helper()
		if info.Result == nil || info.Result.Batches != crashSpec().Batches {
			t.Fatalf("resumed job result = %+v, want the full budget", info.Result)
		}
		dec, err := json.Marshal(info.Result.Decisions)
		if err != nil {
			t.Fatal(err)
		}
		return string(dec)
	}

	// One recovery, run to the end: the reference decision stream.
	r1, jl1, _ := recoverFrom(onceDir, 2)
	want := decisions(waitState(t, r1, crash.ID, autopipe.JobDone))
	drain(t, r1)
	jl1.Close()

	// Recover with one worker: the long job takes it, so the crashed job
	// is still queued when Recover compacts the journal.
	r2, jl2, _ := recoverFrom(twiceDir, 1)
	waitState(t, r2, long.ID, autopipe.JobRunning)
	if got := recordTypes(r2.ExportRecords(crash.ID), crash.ID); !slices.Equal(got, resumeRecords) {
		t.Errorf("queued resume exports %v, want %v", got, resumeRecords)
	}
	if info, _ := r2.Get(crash.ID); info.Status.State != autopipe.JobQueued || len(info.Status.Plan.Stages) != 0 {
		t.Errorf("queued resume = %+v, want queued with no plan yet", info.Status)
	}
	// Crash again.
	r2.Kill()
	if err := r2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	jl2.Close()
	_, recs, err := journal.Open(twiceDir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := recordTypes(recs, crash.ID); !slices.Equal(got, resumeRecords) {
		t.Errorf("compacted journal holds %v for the queued resume, want %v", got, resumeRecords)
	}

	r3, jl3, _ := recoverFrom(twiceDir, 2)
	defer jl3.Close()
	got := decisions(waitState(t, r3, crash.ID, autopipe.JobDone))
	drain(t, r3)
	if n := fired.Load(); n != 0 {
		t.Errorf("consumed kill_daemon event fired %d times after recovery", n)
	}
	if got != want {
		t.Fatalf("second recovery's decisions diverge:\n%s\nvs\n%s", got, want)
	}
}

// TestAdoptQueuedKeepsCheckpoint: an adopted job still waiting for a
// worker exports, and has journaled, the running record and checkpoint
// it was adopted with, so the next hop resumes it too. Its view has no
// plan until it starts; then it finishes from the checkpoint.
func TestAdoptQueuedKeepsCheckpoint(t *testing.T) {
	park, parked, unpark := parkFirst()
	src := NewRegistryWithOptions(Options{PoolSize: 1, CheckpointEvery: 2, NodeID: "src", ConfigureJob: park})
	t.Cleanup(func() { unpark(); drain(t, src) })
	running, err := src.SubmitWithID("job-src-000001", smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-parked
	recs := src.ExportRecords(running.ID)
	if got := recordTypes(recs, running.ID); !slices.Equal(got, resumeRecords) {
		t.Fatalf("source exports %v, want %v", got, resumeRecords)
	}
	var cp checkpointRec
	if err := json.Unmarshal(recs[2].Data, &cp); err != nil {
		t.Fatal(err)
	}

	var (
		mu       sync.Mutex
		recorded []journal.Record
	)
	dst, _, release := parkedRegistry(t, Options{NodeID: "dst", OnRecord: func(rec journal.Record) {
		mu.Lock()
		recorded = append(recorded, rec)
		mu.Unlock()
	}})
	stats, err := dst.Adopt(recs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != 1 {
		t.Fatalf("adopt stats = %+v, want 1 resumed", stats)
	}
	if got := recordTypes(dst.ExportRecords(running.ID), running.ID); !slices.Equal(got, resumeRecords) {
		t.Fatalf("queued adopted job exports %v, want %v", got, resumeRecords)
	}
	mu.Lock()
	journaled := recordTypes(recorded, running.ID)
	mu.Unlock()
	if !slices.Equal(journaled, resumeRecords) {
		t.Fatalf("adoption journaled %v, want %v", journaled, resumeRecords)
	}
	info, err := dst.Get(running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status.State != autopipe.JobQueued || info.Status.Iteration != cp.Checkpoint.Iterations ||
		len(info.Status.Plan.Stages) != 0 {
		t.Fatalf("queued adopted job = %+v, want queued at the checkpoint with no plan", info.Status)
	}
	release()
	done := waitState(t, dst, running.ID, autopipe.JobDone)
	if done.Result == nil || done.Result.Batches != smallSpec().Batches || len(done.Status.Plan.Stages) == 0 {
		t.Fatalf("adopted job finished as %+v", done)
	}
}

// TestAdoptFencesRestoredByState: fencing has one "finished" rule, the
// done state. A journal-restored copy that was cancelled is fenced out
// by a higher-fence adoption, which re-homes and runs the job; a
// restored done copy is kept.
func TestAdoptFencesRestoredByState(t *testing.T) {
	src, blocker, release := parkedRegistry(t, Options{})
	cancelled, err := src.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.CancelView(cancelled.ID); err != nil {
		t.Fatal(err)
	}
	release()
	waitState(t, src, blocker.ID, autopipe.JobDone)
	waitState(t, src, cancelled.ID, autopipe.JobCancelled)
	done, err := src.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, src, done.ID, autopipe.JobDone)

	r := NewRegistry(1)
	defer drain(t, r)
	stats, err := r.Recover(src.ExportRecords())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 3 {
		t.Fatalf("recover stats = %+v, want 3 completed", stats)
	}
	var incoming []journal.Record
	for _, rec := range src.ExportRecords(cancelled.ID, done.ID) {
		if rec.Type == journal.TypeSubmitted {
			rec.Fence = 5
			incoming = append(incoming, rec)
		}
	}
	stats, err = r.Adopt(incoming)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requeued != 1 || stats.Skipped != 1 {
		t.Fatalf("adopt stats = %+v, want the cancelled copy re-queued and the done one kept", stats)
	}
	if c := r.Counters(); c.FencedOut != 1 || c.FenceRejected != 1 {
		t.Fatalf("counters = %+v, want 1 fenced out and 1 rejected", c)
	}
	if f, _ := r.Fence(cancelled.ID); f != 6 {
		t.Fatalf("re-homed job fence = %d, want 6", f)
	}
	waitState(t, r, cancelled.ID, autopipe.JobDone)
	if f, _ := r.Fence(done.ID); f != 1 {
		t.Fatalf("kept done job fence = %d, want 1", f)
	}
	if info, _ := r.Get(done.ID); info.Status.State != autopipe.JobDone {
		t.Fatalf("kept done job = %+v", info.Status)
	}
}
