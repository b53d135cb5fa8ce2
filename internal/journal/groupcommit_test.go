package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

// curCount reads the size of the accumulating batch.
func curCount(j *Journal) int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cur == nil {
		return 0
	}
	return j.cur.count
}

// TestGroupCommitCoalescesFsyncs is the regression test for the
// one-fsync-per-record contention bug: with a leader stalled mid-commit
// while N-1 followers enqueue, the whole backlog must drain in a single
// additional fsync. Deterministic via the commitHook: the first leader
// is held until every follower's frame is in the accumulating batch.
func TestGroupCommitCoalescesFsyncs(t *testing.T) {
	const followers = 63
	j, _ := mustOpen(t, t.TempDir(), Options{})
	defer j.Close()

	entered := make(chan int64, 2)
	release := make(chan struct{})
	j.commitHook = func(claimed int64) {
		entered <- claimed
		<-release
	}

	errs := make(chan error, followers+1)
	go func() { errs <- j.Append(rec(0)) }()
	if claimed := <-entered; claimed != 1 {
		t.Fatalf("first leader claimed %d records, want 1", claimed)
	}
	// The leader is parked inside its commit with writeMu held; every
	// follower appended now lands in the next batch.
	for i := 1; i <= followers; i++ {
		go func(i int) { errs <- j.Append(rec(i)) }(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for curCount(j) != followers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers enqueued", curCount(j), followers)
		}
		time.Sleep(100 * time.Microsecond)
	}
	release <- struct{}{} // first leader commits its single record
	if claimed := <-entered; claimed != followers {
		t.Fatalf("second leader claimed %d records, want %d", claimed, followers)
	}
	release <- struct{}{} // second leader commits the whole backlog
	for i := 0; i < followers+1; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	st := j.Stats()
	if st.Appends != followers+1 {
		t.Fatalf("Appends = %d, want %d", st.Appends, followers+1)
	}
	if st.Syncs != 2 {
		t.Fatalf("Syncs = %d for %d concurrent appends, want 2 (group commit)", st.Syncs, followers+1)
	}
}

// TestGroupCommitReplayByteIdentical: a concurrently-written journal
// must replay every record intact, and the on-disk bytes must be
// exactly the frames of the replayed records in order — group commit
// changes who calls fsync, not the framing.
func TestGroupCommitReplayByteIdentical(t *testing.T) {
	const n = 200
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- j.Append(rec(i))
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs := mustOpen(t, dir, Options{})
	defer j2.Close()
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
	// Arrival order is scheduler-dependent; the record set is not.
	ids := make([]string, len(recs))
	for i, r := range recs {
		ids[i] = r.JobID
	}
	sort.Strings(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			t.Fatalf("record %s replayed twice", ids[i])
		}
	}
	// Re-encoding the replayed records in replay order must reproduce
	// the segment bytes exactly.
	var want []byte
	for _, r := range recs {
		frame, err := encodeFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, frame...)
	}
	var got []byte
	for _, seq := range j2.segments {
		data, err := os.ReadFile(filepath.Join(dir, segName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, data...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("on-disk bytes differ from re-encoded replay (%d vs %d bytes)", len(got), len(want))
	}
}

// TestConcurrentAppendAndCompact: the journal itself must stay safe
// when appends overlap compaction (the registry now allows concurrent
// appenders and only excludes compaction at its own layer).
func TestConcurrentAppendAndCompact(t *testing.T) {
	j, _ := mustOpen(t, t.TempDir(), Options{NoSync: true, SegmentBytes: 512})
	defer j.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := j.Append(rec(g*50 + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 5; i++ {
		if err := j.Compact([]Record{rec(0)}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if j.Segments() < 1 || j.Records() < 1 {
		t.Fatalf("segments=%d records=%d after concurrent append+compact", j.Segments(), j.Records())
	}
}

// TestAppendWaitingAcrossCloseFails: an append that loses the commit
// race to Close must report the closed error, not write to a closed
// file or succeed silently.
func TestAppendWaitingAcrossCloseFails(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	entered := make(chan int64, 1)
	release := make(chan struct{})
	j.commitHook = func(claimed int64) {
		entered <- claimed
		<-release
	}
	leaderErr := make(chan error, 1)
	go func() { leaderErr <- j.Append(rec(0)) }()
	<-entered
	followerErr := make(chan error, 1)
	go func() { followerErr <- j.Append(rec(1)) }()
	deadline := time.Now().Add(10 * time.Second)
	for curCount(j) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never enqueued")
		}
		time.Sleep(100 * time.Microsecond)
	}
	closeErr := make(chan error, 1)
	go func() { closeErr <- j.Close() }()
	// Close is blocked on writeMu behind the stalled leader. Once the
	// leader is released, the follower and Close race for writeMu; the
	// follower becomes the next leader either way (its hook fires even
	// on the closed path) and either commits durably or fails closed —
	// never a silent loss.
	release <- struct{}{}
	<-entered
	release <- struct{}{}
	fErr := <-followerErr
	if err := <-leaderErr; err != nil {
		t.Fatal(err)
	}
	if err := <-closeErr; err != nil {
		t.Fatal(err)
	}
	_, recs := mustOpen(t, dir, Options{})
	var has0, has1 bool
	for _, r := range recs {
		has0 = has0 || r.JobID == rec(0).JobID
		has1 = has1 || r.JobID == rec(1).JobID
	}
	if !has0 {
		t.Fatal("leader's record lost despite successful Append")
	}
	if (fErr == nil) != has1 {
		t.Fatalf("follower err=%v but record durable=%v — acknowledged state must match disk", fErr, has1)
	}
}
