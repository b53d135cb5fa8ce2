package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"autopipe"
	"autopipe/internal/journal"
)

// TestSteadyStateRatioCompaction: compaction must fire during normal
// operation once the live/total record ratio drops below the threshold
// — not only after recovery or segment-count growth. Jobs here finish
// quickly, so completed-job history and superseded checkpoints pile up
// in a single segment that the old segment-count trigger would never
// rewrite.
func TestSteadyStateRatioCompaction(t *testing.T) {
	dir := t.TempDir()
	jl, _, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistryWithOptions(Options{
		PoolSize: 2, CheckpointEvery: 2, Journal: jl,
	})
	// Each job journals about 7 records (submitted, running, up to 4
	// checkpoints, completed), so 12 jobs pass the trigger's 64-record
	// floor.
	var ids []string
	for i := 0; i < 12; i++ {
		info, err := r.Submit(smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	for _, id := range ids {
		waitState(t, r, id, autopipe.JobDone)
	}
	if err := r.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := jl.Stats()
	if st.Compactions < 1 {
		t.Fatalf("no steady-state compaction after %d appends in %d segments (records now %d)",
			st.Appends, jl.Segments(), jl.Records())
	}
	if segs := jl.Segments(); segs != 1 {
		t.Fatalf("journal spread over %d segments, want 1", segs)
	}
	// The compacted journal must still replay to the full job set.
	jl.Close()
	jl2, recs, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	r2 := NewRegistryWithOptions(Options{PoolSize: 2, Journal: jl2})
	stats, err := r2.Recover(recs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != len(ids) {
		t.Fatalf("recovery after compaction = %+v, want %d completed", stats, len(ids))
	}
	if err := r2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitWithIDAndNodeStamp: caller-assigned IDs round-trip, clash
// detection works, and Options.NodeID shows up on every JobInfo.
func TestSubmitWithIDAndNodeStamp(t *testing.T) {
	r := NewRegistryWithOptions(Options{PoolSize: 2, NodeID: "n1"})
	defer drain(t, r)
	info, err := r.SubmitWithID("job-n9-000007", smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "job-n9-000007" || info.Node != "n1" {
		t.Fatalf("info = %+v, want the assigned id and node n1", info)
	}
	if _, err := r.SubmitWithID("job-n9-000007", smallSpec()); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate id error = %v, want ErrDuplicateID", err)
	}
	// The sequence namespace is untouched by external IDs.
	auto, err := r.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if auto.ID != "job-0001" {
		t.Fatalf("auto id = %s, want job-0001", auto.ID)
	}
	done := waitState(t, r, auto.ID, autopipe.JobDone)
	if done.Node != "n1" {
		t.Fatalf("finished job node = %q, want n1", done.Node)
	}
}

// TestAdoptMergesIntoLiveRegistry: records exported from one registry
// resume on another that is already hosting jobs — the fleet failover
// path — and a second Adopt of the same stream is a no-op.
func TestAdoptMergesIntoLiveRegistry(t *testing.T) {
	var recorded []journal.Record
	// The source job parks in its first checkpoint, after journaling
	// it, until the stream is exported: a 40-batch job can otherwise
	// finish between two polls for that checkpoint.
	park, parked, release := parkFirst()
	src := NewRegistryWithOptions(Options{
		PoolSize: 1, CheckpointEvery: 2, NodeID: "src",
		OnRecord:     func(rec journal.Record) { recorded = append(recorded, rec) },
		ConfigureJob: park,
	})
	spec := smallSpec()
	spec.Batches = 40
	info, err := src.SubmitWithID("job-src-000001", spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-parked:
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for a checkpoint on the source job")
	}
	if m, err := src.Get(info.ID); err != nil || m.Status.State != autopipe.JobRunning || m.Status.Iteration < 2 {
		t.Fatalf("source job at its first checkpoint = %+v, %v; want running at iteration >= 2", m.Status, err)
	}
	// Export the live stream (spec + state + checkpoint) and "kill" the
	// source without any completion record reaching the stream.
	recs := src.ExportRecords(info.ID)
	release()
	drain(t, src)

	dst := NewRegistryWithOptions(Options{PoolSize: 2, NodeID: "dst"})
	defer drain(t, dst)
	existing, err := dst.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := dst.Adopt(recs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed+stats.Restarted != 1 {
		t.Fatalf("adopt stats = %+v, want 1 resumed or restarted", stats)
	}
	adopted := waitState(t, dst, info.ID, autopipe.JobDone)
	if adopted.Node != "dst" || adopted.Result == nil || adopted.Result.Batches != 40 {
		t.Fatalf("adopted job = %+v, want dst-hosted full result", adopted)
	}
	waitState(t, dst, existing.ID, autopipe.JobDone)
	// Idempotence: adopting the same stream again must not double-run.
	again, err := dst.Adopt(recs)
	if err != nil {
		t.Fatal(err)
	}
	if again.Resumed+again.Restarted+again.Requeued+again.Completed != 0 {
		t.Fatalf("second adopt rebuilt jobs: %+v", again)
	}
	if len(recorded) == 0 {
		t.Fatal("OnRecord hook never fired on the source registry")
	}
}

// TestDetachQueued: queued jobs can be yanked for fleet handoff — they
// never start locally, disappear from listings, and running jobs are
// left alone. Single-node drain semantics are covered elsewhere and
// unchanged.
func TestDetachQueued(t *testing.T) {
	r := NewRegistryWithOptions(Options{PoolSize: 1, NodeID: "n1"})
	running, err := r.Submit(hugeSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, running.ID, autopipe.JobRunning)
	q1, err := r.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	q2, err := r.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	out := r.DetachQueued()
	if len(out) != 2 || out[0].ID != q1.ID || out[1].ID != q2.ID {
		t.Fatalf("DetachQueued = %+v, want %s and %s", out, q1.ID, q2.ID)
	}
	if _, err := r.Get(q1.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("detached job still listed: %v", err)
	}
	if got := listInfos(t, r); len(got) != 1 || got[0].ID != running.ID {
		t.Fatalf("ListViews after detach = %+v", got)
	}
	// The detached specs are resubmittable elsewhere under the same ID.
	other := NewRegistryWithOptions(Options{PoolSize: 1, NodeID: "n2"})
	defer drain(t, other)
	for _, q := range out {
		if _, err := other.SubmitWithID(q.ID, q.Spec); err != nil {
			t.Fatal(err)
		}
	}
	waitState(t, other, q1.ID, autopipe.JobDone)
	waitState(t, other, q2.ID, autopipe.JobDone)
	// Drain the original: the detached jobs left the run queue, so no
	// worker waits on them, and the running job is cancelled by the
	// deadline.
	drain(t, r)
	if got, err := r.Get(running.ID); err != nil || got.Status.Iteration == 0 {
		t.Fatalf("running job was disturbed by detach: %+v (%v)", got, err)
	}
}
