package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func mustOpen(t *testing.T, dir string, opts Options) (*Journal, []Record) {
	t.Helper()
	j, recs, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return j, recs
}

// encodeFrame returns r's frame on its own.
func encodeFrame(r Record) ([]byte, error) {
	if err := checkFrame(r); err != nil {
		return nil, err
	}
	return appendFrame(nil, r), nil
}

func rec(i int) Record {
	return Record{
		Type:  Type(1 + i%4),
		JobID: fmt.Sprintf("job-%04d", i),
		Fence: uint64(1 + i%3),
		Data:  []byte(fmt.Sprintf(`{"seq":%d}`, i)),
	}
}

func appendN(t *testing.T, j *Journal, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func checkRecs(t *testing.T, got []Record, want int) {
	t.Helper()
	if len(got) != want {
		t.Fatalf("replayed %d records, want %d", len(got), want)
	}
	for i, r := range got {
		w := rec(i)
		if r.Type != w.Type || r.JobID != w.JobID || r.Fence != w.Fence || !bytes.Equal(r.Data, w.Data) {
			t.Fatalf("record %d = %+v, want %+v", i, r, w)
		}
	}
}

// TestFenceRoundTrip: the ownership fence survives the frame encoding
// at its extremes (zero = unfenced, max uint64) and with empty ids and
// data.
func TestFenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	want := []Record{
		{Type: TypeSubmitted, JobID: "j", Fence: 0, Data: []byte("{}")},
		{Type: TypeState, JobID: "j", Fence: 1},
		{Type: TypeCheckpoint, JobID: "", Fence: ^uint64(0), Data: []byte("x")},
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, recs := mustOpen(t, dir, Options{})
	defer j2.Close()
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Fence != want[i].Fence || r.JobID != want[i].JobID || !bytes.Equal(r.Data, want[i].Data) {
			t.Fatalf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, recs := mustOpen(t, dir, Options{})
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	appendN(t, j, 25)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, recs := mustOpen(t, dir, Options{})
	defer j2.Close()
	checkRecs(t, recs, 25)
	if st := j2.Stats(); st.Replayed != 25 || st.TruncatedBytes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRecordsCounter: the live-record counter tracks appends, replays
// and compactions, and a reopen replays exactly the live records in
// write order.
func TestRecordsCounter(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{NoSync: true})
	appendN(t, j, 10)
	if n := j.Records(); n != 10 {
		t.Fatalf("Records() = %d after 10 appends, want 10", n)
	}
	j.Close()
	j, recs := mustOpen(t, dir, Options{NoSync: true})
	checkRecs(t, recs, 10)

	// Compact down to 3 live records: the counter resets, and a reopen
	// replays only the compacted state plus later appends.
	live := []Record{rec(0), rec(1), rec(2)}
	if err := j.Compact(live); err != nil {
		t.Fatal(err)
	}
	if n := j.Records(); n != 3 {
		t.Fatalf("Records() = %d after compaction to 3, want 3", n)
	}
	appendN(t, j, 2)
	if n := j.Records(); n != 5 {
		t.Fatalf("Records() = %d after 2 more appends, want 5", n)
	}
	j.Close()

	// A reopen replays into the counter too.
	j2, recs := mustOpen(t, dir, Options{NoSync: true})
	defer j2.Close()
	if n := j2.Records(); n != int64(len(recs)) || n != 5 {
		t.Fatalf("Records() = %d after reopen of %d records, want 5", n, len(recs))
	}
	for i, want := range append(live, rec(0), rec(1)) {
		if r := recs[i]; r.Type != want.Type || r.JobID != want.JobID || r.Fence != want.Fence || !bytes.Equal(r.Data, want.Data) {
			t.Fatalf("replayed record %d = %+v, want %+v", i, r, want)
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{SegmentBytes: 128})
	appendN(t, j, 40)
	if got := j.Segments(); got < 3 {
		t.Fatalf("Segments() = %d after 40 appends at 128B threshold", got)
	}
	if st := j.Stats(); st.Rotations == 0 {
		t.Fatalf("no rotations recorded: %+v", st)
	}
	j.Close()
	j2, recs := mustOpen(t, dir, Options{SegmentBytes: 128})
	defer j2.Close()
	checkRecs(t, recs, 40)
}

// lastSegment returns the path of the highest-numbered segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, e := range entries {
		if last == "" || e.Name() > last {
			last = e.Name()
		}
	}
	if last == "" {
		t.Fatal("no segment files")
	}
	return filepath.Join(dir, last)
}

// TestTortureRecovery drives the repair paths the ISSUE names: a
// truncated tail, a bit-flipped CRC, a partial final record, and replay
// after compaction all recover without error.
func TestTortureRecovery(t *testing.T) {
	const n = 20
	cases := map[string]struct {
		corrupt func(t *testing.T, dir string)
		// minIntact is the fewest records that must survive; all
		// surviving records must be an intact prefix.
		minIntact     int
		wantTruncated bool
	}{
		"truncated tail": {
			corrupt: func(t *testing.T, dir string) {
				path := lastSegment(t, dir)
				st, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(path, st.Size()-7); err != nil {
					t.Fatal(err)
				}
			},
			minIntact: n - 1, wantTruncated: true,
		},
		"bit-flipped crc": {
			corrupt: func(t *testing.T, dir string) {
				path := lastSegment(t, dir)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)-1] ^= 0x40 // flips a bit inside the last record's payload
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			minIntact: n - 1, wantTruncated: true,
		},
		"partial final record": {
			corrupt: func(t *testing.T, dir string) {
				// A frame header promising more payload than was written:
				// the crash tore the write mid-record.
				path := lastSegment(t, dir)
				f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				frame, err := encodeFrame(rec(999))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(frame[:len(frame)-5]); err != nil {
					t.Fatal(err)
				}
			},
			minIntact: n, wantTruncated: true,
		},
		"replay after compaction": {
			corrupt:   func(t *testing.T, dir string) {},
			minIntact: n,
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			j, _ := mustOpen(t, dir, Options{SegmentBytes: 256})
			appendN(t, j, n)
			if name == "replay after compaction" {
				live := make([]Record, n)
				for i := range live {
					live[i] = rec(i)
				}
				if err := j.Compact(live); err != nil {
					t.Fatal(err)
				}
				if got := j.Segments(); got != 1 {
					t.Fatalf("Segments() after Compact = %d", got)
				}
			}
			j.Close()
			tc.corrupt(t, dir)
			j2, recs := mustOpen(t, dir, Options{SegmentBytes: 256})
			defer j2.Close()
			if len(recs) < tc.minIntact || len(recs) > n {
				t.Fatalf("recovered %d records, want in [%d,%d]", len(recs), tc.minIntact, n)
			}
			checkRecs(t, recs, len(recs))
			st := j2.Stats()
			if tc.wantTruncated && st.TruncatedBytes == 0 {
				t.Fatalf("corruption not detected: %+v", st)
			}
			// The repaired journal must accept appends and survive
			// another reopen with the repair persisted.
			if err := j2.Append(Record{Type: TypeState, JobID: "job-after", Data: []byte("x")}); err != nil {
				t.Fatal(err)
			}
			j2.Close()
			j3, recs3 := mustOpen(t, dir, Options{SegmentBytes: 256})
			defer j3.Close()
			if len(recs3) != len(recs)+1 {
				t.Fatalf("after repair+append: %d records, want %d", len(recs3), len(recs)+1)
			}
			if st := j3.Stats(); st.TruncatedBytes != 0 {
				t.Fatalf("repair did not persist: %+v", st)
			}
		})
	}
}

// TestCorruptionMidLogDropsLaterSegments: a bad frame in an early
// segment invalidates everything after it — replay must stop there, not
// resurrect later segments that no longer follow from the repaired
// state.
func TestCorruptionMidLogDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{SegmentBytes: 128})
	appendN(t, j, 40)
	if j.Segments() < 3 {
		t.Fatalf("want ≥3 segments, got %d", j.Segments())
	}
	j.Close()
	// Corrupt the first segment's second record.
	entries, _ := os.ReadDir(dir)
	first := filepath.Join(dir, entries[0].Name())
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := encodeFrame(rec(0))
	data[len(frame)+headerBytes] ^= 0xFF
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, recs := mustOpen(t, dir, Options{SegmentBytes: 128})
	defer j2.Close()
	checkRecs(t, recs, 1)
	if st := j2.Stats(); st.DroppedSegments == 0 {
		t.Fatalf("later segments kept after mid-log corruption: %+v", st)
	}
	if j2.Segments() != 1 {
		t.Fatalf("Segments() = %d after repair", j2.Segments())
	}
}

func TestEmptyAndOversizeRecords(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	defer j.Close()
	if err := j.Append(Record{Type: TypeState}); err != nil {
		t.Fatalf("empty record refused: %v", err)
	}
	big := Record{Type: TypeCheckpoint, JobID: "job-big", Data: make([]byte, maxPayloadBytes)}
	if err := j.Append(big); err == nil {
		t.Fatal("oversize record accepted")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	j, _ := mustOpen(t, t.TempDir(), Options{})
	j.Close()
	if err := j.Append(rec(0)); err == nil {
		t.Fatal("append after Close succeeded")
	}
}

// FuzzJournalReplay throws arbitrary bytes at the frame decoder: it must
// never panic, must only return intact frames, and the reported offset
// must be a valid re-encoding boundary.
func FuzzJournalReplay(f *testing.F) {
	frame0, _ := encodeFrame(Record{Type: TypeSubmitted, JobID: "job-0001", Data: []byte(`{"a":1}`)})
	frame1, _ := encodeFrame(Record{Type: TypeCheckpoint, JobID: "job-0002"})
	f.Add(append(append([]byte{}, frame0...), frame1...))
	f.Add(frame0[:len(frame0)-3])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, off := decodeAll(data)
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("offset %d out of range", off)
		}
		// Re-encoding the decoded records must reproduce the consumed
		// prefix exactly — decode is the inverse of encode.
		var buf bytes.Buffer
		for _, r := range recs {
			frame, err := encodeFrame(r)
			if err != nil {
				t.Fatalf("decoded record does not re-encode: %v", err)
			}
			buf.Write(frame)
		}
		if int64(buf.Len()) != off || !bytes.Equal(buf.Bytes(), data[:off]) {
			t.Fatalf("re-encoded prefix diverges: %d consumed, %d re-encoded", off, buf.Len())
		}
	})
}

var errInjected = errors.New("injected fault")

// faultySegment fails a compaction segment's writes or fsync: after
// writes whole writes it writes half of the next one (a torn frame) and
// fails, and with failSync every fsync fails.
type faultySegment struct {
	*os.File
	writes   int
	failSync bool
}

func (f *faultySegment) Write(p []byte) (int, error) {
	if f.writes == 0 {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errInjected
	}
	f.writes--
	return f.File.Write(p)
}

func (f *faultySegment) Sync() error {
	if f.failSync {
		return errInjected
	}
	return f.File.Sync()
}

// TestFailedCompactRemovesPartialSegment: a compaction whose write or
// fsync fails leaves no partial segment behind. A reopen replays exactly
// the records from before the compaction, and the next rotation starts a
// clean segment instead of appending behind the compacted frames.
func TestFailedCompactRemovesPartialSegment(t *testing.T) {
	for _, tc := range []struct {
		name string
		seg  faultySegment
	}{
		{"torn write", faultySegment{writes: 0}},
		{"fsync", faultySegment{writes: 3, failSync: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{SegmentBytes: 400}
			j, _ := mustOpen(t, dir, opts)
			appendN(t, j, 6)
			j.wrapSegment = func(f *os.File) segmentFile {
				seg := tc.seg
				seg.File = f
				return &seg
			}
			stale := []Record{rec(100), rec(101), rec(102)}
			if err := j.Compact(stale); !errors.Is(err, errInjected) {
				t.Fatalf("Compact = %v, want the injected fault", err)
			}
			if _, err := os.Stat(filepath.Join(dir, segName(2))); !os.IsNotExist(err) {
				t.Fatalf("partial compaction segment left behind (stat: %v)", err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j, recs := mustOpen(t, dir, opts)
			checkRecs(t, recs, 6)
			for i := 6; i < 16; i++ {
				if err := j.Append(rec(i)); err != nil {
					t.Fatal(err)
				}
			}
			if j.Stats().Rotations == 0 {
				t.Fatal("appends did not rotate")
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j, recs = mustOpen(t, dir, opts)
			defer j.Close()
			checkRecs(t, recs, 16)
		})
	}
}

// tornFile fails the next write after tear is set, writing only its
// first keep bytes (a short write), and fails every truncate with
// failTruncate.
type tornFile struct {
	*os.File
	tear         bool
	keep         int
	failTruncate bool
}

func (f *tornFile) Write(p []byte) (int, error) {
	if f.tear {
		f.tear = false
		n, _ := f.File.Write(p[:f.keep])
		return n, errInjected
	}
	return f.File.Write(p)
}

func (f *tornFile) Truncate(size int64) error {
	if f.failTruncate {
		return errInjected
	}
	return f.File.Truncate(size)
}

// TestTornAppendKeepsLaterRecords: an append whose write fails part way
// must not hide the records acknowledged after it. The journal cuts the
// partial frame off again; when the truncate fails too, it refuses
// every append until a retried truncate succeeds or a compaction
// replaces the segment. Either way a reopen replays every acknowledged
// record, in order, and the repair holds across a second reopen.
func TestTornAppendKeepsLaterRecords(t *testing.T) {
	for _, tc := range []struct {
		name         string
		keep         int // bytes of the failed frame that reach the file
		failTruncate bool
		// repair, for a truncate that fails, clears the tear after one
		// refused append.
		repair func(j *Journal, seg *tornFile, acked []Record) error
	}{
		{name: "truncated/half-frame", keep: 18},
		{name: "truncated/part-header", keep: 3},
		{name: "retried/half-frame", keep: 18, failTruncate: true,
			repair: func(j *Journal, seg *tornFile, acked []Record) error {
				seg.failTruncate = false
				return nil
			}},
		{name: "compacted/part-header", keep: 3, failTruncate: true,
			repair: func(j *Journal, seg *tornFile, acked []Record) error {
				return j.Compact(acked)
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j, _ := mustOpen(t, dir, Options{})
			appendN(t, j, 4)
			var seg *tornFile // the active segment's wrapper
			j.wrapSegment = func(f *os.File) segmentFile {
				seg = &tornFile{File: f, keep: tc.keep, failTruncate: tc.failTruncate}
				return seg
			}
			j.writeMu.Lock()
			err := j.rotate()
			j.writeMu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(rec(4)); err != nil {
				t.Fatal(err)
			}
			seg.tear = true
			if err := j.Append(rec(5)); !errors.Is(err, errInjected) {
				t.Fatalf("torn append = %v, want the injected fault", err)
			}
			acked := []Record{rec(0), rec(1), rec(2), rec(3), rec(4)}
			if tc.repair != nil {
				if err := j.Append(rec(6)); !errors.Is(err, errInjected) {
					t.Fatalf("append behind an uncut tear = %v, want it refused", err)
				}
				if err := tc.repair(j, seg, acked); err != nil {
					t.Fatal(err)
				}
			}
			for i := 7; i < 9; i++ {
				if err := j.Append(rec(i)); err != nil {
					t.Fatalf("append after a torn one: %v", err)
				}
				acked = append(acked, rec(i))
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			for reopen := 1; reopen <= 2; reopen++ {
				j, recs := mustOpen(t, dir, Options{})
				st := j.Stats()
				j.Close()
				if len(recs) != len(acked) {
					t.Fatalf("reopen %d replayed %d records, want the %d acknowledged (stats %+v)",
						reopen, len(recs), len(acked), st)
				}
				for i, r := range recs {
					w := acked[i]
					if r.Type != w.Type || r.JobID != w.JobID || r.Fence != w.Fence || !bytes.Equal(r.Data, w.Data) {
						t.Fatalf("reopen %d: record %d = %+v, want %+v", reopen, i, r, w)
					}
				}
				if st.DroppedSegments != 0 || st.TruncatedBytes != 0 {
					t.Fatalf("reopen %d: stats %+v", reopen, st)
				}
			}
		})
	}
}
