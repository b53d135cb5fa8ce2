// Package journal is a crash-safe, append-only record log for the
// autopiped control plane. Every record is framed with a length and a
// CRC32 and fsync'd before Append returns, so any state acknowledged to
// a client survives a SIGKILL of the daemon. The log is segmented:
// writes rotate to a fresh segment file once the active one exceeds the
// configured size, and Compact rewrites the live state into a single
// new segment and deletes the history.
//
// Recovery is deliberately forgiving about torn writes: replay stops at
// the first corrupted frame, truncates that segment there, and discards
// any later segments (an fsync'd append-only log can only be corrupt at
// the point the crash tore it). A failed append is cut off at once, and
// the journal refuses appends while it cannot cut it off, so no
// acknowledged record ever lands behind a torn frame. Corruption is
// repaired and counted, not fatal.
//
// On-disk frame, little-endian:
//
//	u32 payload length | u32 CRC32(IEEE) of payload | payload
//
// payload = 1-byte record type | u16 job-id length | job id | u64 fence | data
//
// The fence is the job-ownership epoch the record was written under
// (see Record.Fence); it rides every frame so replicas can reject
// stale-owner writes after a network partition heals.
//
// The data blob is opaque to this package; the server layer stores JSON.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Type tags a journal record.
type Type uint8

// Record types written by the control plane.
const (
	// TypeSubmitted records a job accepted into the registry (spec).
	TypeSubmitted Type = 1
	// TypeState records a job lifecycle transition (running, …).
	TypeState Type = 2
	// TypeCheckpoint records a periodic controller checkpoint.
	TypeCheckpoint Type = 3
	// TypeCompleted records a finished job with its final info.
	TypeCompleted Type = 4
)

// Record is one journal entry.
type Record struct {
	Type  Type
	JobID string
	// Fence is the ownership epoch the record was written under. It
	// starts at 1 when a job is first admitted and is bumped every time
	// another node adopts the job, so any two writers for the same job
	// are totally ordered: a replica holding fence F rejects records
	// carrying a smaller fence (a partitioned ex-owner writing after its
	// job moved). Zero means "unfenced" (pre-fencing records and
	// registries that do not track ownership) and never wins against a
	// positive fence.
	Fence uint64
	Data  []byte
}

// Options tunes a Journal.
type Options struct {
	// SegmentBytes is the rotation threshold (default 1 MiB).
	SegmentBytes int64
	// NoSync skips fsync — test-only; a crash may lose acknowledged
	// records.
	NoSync bool
}

// DefaultSegmentBytes is the rotation threshold when unset.
const DefaultSegmentBytes = 1 << 20

// maxPayloadBytes bounds a single record frame; anything larger during
// replay is treated as corruption (a torn length word would otherwise
// ask for gigabytes).
const maxPayloadBytes = 1 << 24

// Stats counts journal activity since Open.
type Stats struct {
	Appends         int64 // records committed by Append
	Syncs           int64 // fsync barriers paid by Append commits; with group commit many Appends share one
	Rotations       int64 // segment rollovers
	Compactions     int64 // Compact calls
	Replayed        int64 // records recovered by Open
	TruncatedBytes  int64 // corrupted tail bytes discarded by Open
	DroppedSegments int64 // segments beyond a corrupt frame discarded by Open
}

// appendBatch accumulates the frames of concurrent Append callers so
// one leader can commit them with a single write and a single fsync.
type appendBatch struct {
	buf   []byte // concatenated frames in arrival order
	count int64  // records in buf
	done  bool   // committed (or failed); err is the outcome
	err   error
}

// Journal is an open log directory. All methods are safe for concurrent
// use.
//
// Appends are group-committed: callers enqueue their encoded frame
// under mu, then race for writeMu. The winner (leader) claims the whole
// accumulated batch — its own record plus every record that arrived
// while the previous commit's fsync was in flight — and flushes it with
// one write and one fsync; the losers (followers) find their batch
// already committed when they get writeMu and just report its outcome.
// Under N concurrent appenders this costs ~2 fsyncs per drain cycle
// instead of N.
type Journal struct {
	dir  string
	opts Options

	// writeMu serialises all segment I/O: append commits, rotation,
	// compaction and close. active/activeSeq/activeSize are only
	// touched with writeMu held. Lock order is writeMu then mu, never
	// the reverse.
	writeMu    sync.Mutex
	active     segmentFile
	activeSeq  int
	activeSize int64
	// torn marks an active segment that may end in a partial frame a
	// failed write left behind and could not cut off. Until a commit's
	// truncate succeeds or Compact replaces the segment, every commit
	// fails without writing.
	torn bool

	mu       sync.Mutex
	cur      *appendBatch // accumulating batch; nil until a writer arrives
	segments []int        // live segment sequence numbers, ascending
	records  int64        // records in the live segments (replayed + appended)
	stats    Stats
	closed   bool

	// commitHook, when set (tests only), runs in the committing leader
	// after it claims its batch and before the write, with writeMu
	// held — letting tests stall the leader while followers pile into
	// the next batch.
	commitHook func(claimed int64)
	// wrapSegment, when set (tests only), wraps every segment file the
	// journal opens from then on — appends, rotations and compactions
	// alike — so a test can fail its writes, fsync or truncate.
	wrapSegment func(*os.File) segmentFile
}

// segmentFile is the part of a segment file the journal writes through.
type segmentFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

const segPattern = "seg-%08d.wal"

func segName(seq int) string { return fmt.Sprintf(segPattern, seq) }

// Open creates (or reopens) the journal in dir, replays every intact
// record in write order and returns them. Corrupted tails are repaired:
// the offending segment is truncated at the last intact frame and later
// segments are deleted.
func Open(dir string, opts Options) (*Journal, []Record, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: create dir: %w", err)
	}
	j := &Journal{dir: dir, opts: opts}
	seqs, err := j.listSegments()
	if err != nil {
		return nil, nil, err
	}
	var recs []Record
	for i, seq := range seqs {
		path := filepath.Join(dir, segName(seq))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("journal: read %s: %w", path, err)
		}
		segRecs, good := decodeAll(data)
		recs = append(recs, segRecs...)
		j.segments = append(j.segments, seq)
		if good == int64(len(data)) {
			continue
		}
		// Torn frame: truncate this segment at the last intact record
		// and drop everything after it — later segments were written
		// after the corruption point and cannot be trusted to follow
		// from the repaired state.
		j.stats.TruncatedBytes += int64(len(data)) - good
		if err := os.Truncate(path, good); err != nil {
			return nil, nil, fmt.Errorf("journal: truncate %s: %w", path, err)
		}
		for _, later := range seqs[i+1:] {
			if err := os.Remove(filepath.Join(dir, segName(later))); err != nil {
				return nil, nil, fmt.Errorf("journal: drop segment: %w", err)
			}
			j.stats.DroppedSegments++
		}
		break
	}
	j.stats.Replayed = int64(len(recs))
	j.records = int64(len(recs))
	if len(j.segments) == 0 {
		j.segments = []int{1}
	}
	seq := j.segments[len(j.segments)-1]
	f, size, err := j.openSegment(seq)
	if err != nil {
		return nil, nil, err
	}
	j.active, j.activeSeq, j.activeSize = f, seq, size
	return j, recs, nil
}

func (j *Journal) listSegments() ([]int, error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, fmt.Errorf("journal: list dir: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		var seq int
		if _, err := fmt.Sscanf(e.Name(), segPattern, &seq); err == nil && segName(seq) == e.Name() {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

func (j *Journal) openSegment(seq int) (segmentFile, int64, error) {
	path := filepath.Join(j.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: open segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("journal: stat segment: %w", err)
	}
	if j.wrapSegment != nil {
		return j.wrapSegment(f), st.Size(), nil
	}
	return f, st.Size(), nil
}

var errClosed = fmt.Errorf("journal: closed")

// Append frames one record and commits it durably, rotating first when
// the active segment is over the size threshold. Concurrent callers are
// group-committed: their frames are coalesced, in arrival order, into a
// single write + fsync (see the Journal doc comment), so N simultaneous
// appenders pay far fewer than N fsyncs while every caller still only
// returns once its record is on disk.
func (j *Journal) Append(rec Record) error {
	if err := checkFrame(rec); err != nil {
		return err
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return errClosed
	}
	b := j.cur
	if b == nil {
		b = &appendBatch{}
		j.cur = b
	}
	b.buf = appendFrame(b.buf, rec)
	b.count++
	j.mu.Unlock()

	j.writeMu.Lock()
	defer j.writeMu.Unlock()
	j.mu.Lock()
	if b.done {
		// A leader committed our batch while we waited for writeMu.
		err := b.err
		j.mu.Unlock()
		return err
	}
	// We are the leader. An unclaimed batch is necessarily still j.cur
	// (batches are only replaced at claim time, under writeMu), so
	// claiming it picks up every frame that accumulated behind ours.
	b = j.cur
	j.cur = nil
	closed := j.closed
	j.mu.Unlock()
	if j.commitHook != nil {
		j.commitHook(b.count)
	}
	err := errClosed
	if !closed {
		err = j.writeBatch(b.buf)
	}
	j.mu.Lock()
	b.done, b.err = true, err
	if err == nil {
		j.records += b.count
		j.stats.Appends += b.count
		j.stats.Syncs++
	}
	j.mu.Unlock()
	return err
}

// writeBatch writes one claimed batch to the active segment and fsyncs
// it, rotating first if the batch would overflow the segment. Caller
// holds writeMu (and not mu).
//
// A failed or short write is cut off again: the segment is opened
// O_APPEND, so a partial frame left in place would sit in front of the
// next batch, and replay — which stops at the first bad frame — would
// hide every record acknowledged after it. If the truncate fails too,
// the segment is torn: each later commit retries the truncate and fails
// without writing until it succeeds or Compact replaces the segment.
func (j *Journal) writeBatch(buf []byte) error {
	if j.torn {
		if err := j.active.Truncate(j.activeSize); err != nil {
			return fmt.Errorf("journal: segment ends in a failed write: %w", err)
		}
		j.torn = false
	}
	if j.activeSize > 0 && j.activeSize+int64(len(buf)) > j.opts.SegmentBytes {
		if err := j.rotate(); err != nil {
			return err
		}
	}
	if _, err := j.active.Write(buf); err != nil {
		j.torn = j.active.Truncate(j.activeSize) != nil
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := j.syncFile(j.active); err != nil {
		return err
	}
	j.activeSize += int64(len(buf))
	return nil
}

// rotate opens the next segment and retires the active one. Caller
// holds writeMu.
func (j *Journal) rotate() error {
	next := j.activeSeq + 1
	f, size, err := j.openSegment(next)
	if err != nil {
		return err
	}
	if err := j.syncDir(); err != nil {
		f.Close()
		return err
	}
	j.active.Close()
	j.active, j.activeSeq, j.activeSize = f, next, size
	j.mu.Lock()
	j.segments = append(j.segments, next)
	j.stats.Rotations++
	j.mu.Unlock()
	return nil
}

// Compact rewrites the journal as exactly the given records in a fresh
// segment and deletes every older segment. Callers pass the compacted
// live state (latest spec/state/checkpoint per job); history is
// discarded.
func (j *Journal) Compact(live []Record) error {
	j.writeMu.Lock()
	defer j.writeMu.Unlock()
	j.mu.Lock()
	closed := j.closed
	j.mu.Unlock()
	if closed {
		return errClosed
	}
	next := j.activeSeq + 1
	f, _, err := j.openSegment(next)
	if err != nil {
		return err
	}
	// Any failure removes the partial segment: left behind, the next
	// rotate would append to it behind a torn frame, and a reopen would
	// replay its stale records after the newer ones in the active one.
	fail := func(err error) error {
		f.Close()
		os.Remove(filepath.Join(j.dir, segName(next)))
		return err
	}
	// Frames are gathered into chunks of compactChunkBytes, so a
	// compaction of thousands of records costs a handful of writes.
	var (
		size int64
		buf  []byte
	)
	flush := func() error {
		if _, err := f.Write(buf); err != nil {
			return fmt.Errorf("journal: compact write: %w", err)
		}
		size += int64(len(buf))
		buf = buf[:0]
		return nil
	}
	for _, rec := range live {
		if err := checkFrame(rec); err != nil {
			return fail(err)
		}
		buf = appendFrame(buf, rec)
		if len(buf) >= compactChunkBytes {
			if err := flush(); err != nil {
				return fail(err)
			}
		}
	}
	if len(buf) > 0 {
		if err := flush(); err != nil {
			return fail(err)
		}
	}
	if err := j.syncFile(f); err != nil {
		return fail(err)
	}
	if err := j.syncDir(); err != nil {
		return fail(err)
	}
	// The compacted segment is durable; old history can go.
	j.active.Close()
	j.active, j.activeSeq, j.activeSize, j.torn = f, next, size, false
	j.mu.Lock()
	old := j.segments
	j.segments = []int{next}
	j.records = int64(len(live))
	j.stats.Compactions++
	j.mu.Unlock()
	for _, seq := range old {
		os.Remove(filepath.Join(j.dir, segName(seq)))
	}
	return nil
}

func (j *Journal) syncFile(f interface{ Sync() error }) error {
	if j.opts.NoSync {
		return nil
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	return nil
}

func (j *Journal) syncDir() error {
	if j.opts.NoSync {
		return nil
	}
	d, err := os.Open(j.dir)
	if err != nil {
		return fmt.Errorf("journal: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: fsync dir: %w", err)
	}
	return nil
}

// Segments returns the number of live segment files.
func (j *Journal) Segments() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.segments)
}

// Records returns the number of records in the live segments: what was
// replayed at Open plus everything appended since, reset by Compact to
// the compacted record count. The live/total ratio against this number
// drives steady-state compaction in the server layer.
func (j *Journal) Records() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Stats returns a snapshot of the journal's activity counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Close fsyncs and closes the active segment. The journal is unusable
// afterwards; Appends still waiting for the commit lock fail with the
// closed error rather than writing to a closed file.
func (j *Journal) Close() error {
	j.writeMu.Lock()
	defer j.writeMu.Unlock()
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.mu.Unlock()
	if err := j.syncFile(j.active); err != nil {
		j.active.Close()
		return err
	}
	return j.active.Close()
}

// frame layout constants.
const (
	headerBytes = 8 // u32 length + u32 crc
	typeBytes   = 1
	idLenBytes  = 2
	fenceBytes  = 8
)

// compactChunkBytes is the size Compact gathers frames to before each
// write.
const compactChunkBytes = 256 << 10

// checkFrame reports a record that cannot be framed.
func checkFrame(rec Record) error {
	if len(rec.JobID) > 1<<16-1 {
		return fmt.Errorf("journal: job id too long (%d bytes)", len(rec.JobID))
	}
	if payload := typeBytes + idLenBytes + len(rec.JobID) + fenceBytes + len(rec.Data); payload > maxPayloadBytes {
		return fmt.Errorf("journal: record too large (%d bytes)", payload)
	}
	return nil
}

// appendFrame appends rec's frame to dst. The record must pass
// checkFrame.
func appendFrame(dst []byte, rec Record) []byte {
	payload := typeBytes + idLenBytes + len(rec.JobID) + fenceBytes + len(rec.Data)
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payload))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // CRC, filled in below
	dst = append(dst, byte(rec.Type))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(rec.JobID)))
	dst = append(dst, rec.JobID...)
	dst = binary.LittleEndian.AppendUint64(dst, rec.Fence)
	dst = append(dst, rec.Data...)
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(dst[start+headerBytes:]))
	return dst
}

// decodeAll parses frames from data until the first corrupt or partial
// frame, returning the intact records and the byte offset of the last
// intact frame boundary.
func decodeAll(data []byte) ([]Record, int64) {
	var recs []Record
	off := int64(0)
	for int64(len(data))-off >= headerBytes {
		h := data[off:]
		length := int64(binary.LittleEndian.Uint32(h[0:]))
		crc := binary.LittleEndian.Uint32(h[4:])
		if length < typeBytes+idLenBytes+fenceBytes || length > maxPayloadBytes {
			break
		}
		if int64(len(data))-off-headerBytes < length {
			break // partial final record
		}
		payload := h[headerBytes : headerBytes+length]
		if crc32.ChecksumIEEE(payload) != crc {
			break
		}
		idLen := int64(binary.LittleEndian.Uint16(payload[1:]))
		if typeBytes+idLenBytes+idLen+fenceBytes > length {
			break
		}
		rec := Record{
			Type:  Type(payload[0]),
			JobID: string(payload[3 : 3+idLen]),
			Fence: binary.LittleEndian.Uint64(payload[3+idLen:]),
		}
		if rest := payload[3+idLen+fenceBytes:]; len(rest) > 0 {
			rec.Data = append([]byte(nil), rest...)
		}
		recs = append(recs, rec)
		off += headerBytes + length
	}
	return recs, off
}
