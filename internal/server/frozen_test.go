package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"autopipe"
	"autopipe/internal/journal"
)

// rawBody performs one HTTP call and returns the status and raw body.
func rawBody(t *testing.T, method, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// mustMarshal is json.Marshal for values that always encode.
func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkServed requires a job's GET and DELETE bodies to be exactly
// json.Marshal(Get(id)) plus a newline, and returns that encoding.
func checkServed(t *testing.T, r *Registry, url, id string) []byte {
	t.Helper()
	info, err := r.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	want := mustMarshal(t, info)
	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		code, body := rawBody(t, method, url+"/v1/jobs/"+id)
		if code != http.StatusOK || !bytes.Equal(body, append(want[:len(want):len(want)], '\n')) {
			t.Fatalf("%s %s = %d\n%s\nwant json.Marshal(Get) and a newline:\n%s", method, id, code, body, want)
		}
	}
	return want
}

// payloads collects the records a registry hands to OnRecord.
type payloads struct {
	mu   sync.Mutex
	recs []journal.Record
}

func (p *payloads) record(rec journal.Record) {
	p.mu.Lock()
	p.recs = append(p.recs, rec)
	p.mu.Unlock()
}

// last returns the newest record of a type for a job.
func (p *payloads) last(id string, typ journal.Type) (journal.Record, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.recs) - 1; i >= 0; i-- {
		if rec := p.recs[i]; rec.JobID == id && rec.Type == typ {
			return rec, true
		}
	}
	return journal.Record{}, false
}

// sameBytes reports whether two payloads are one shared slice.
func sameBytes(a, b []byte) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// TestFinishedJobIsItsBytes: a job finished here is frozen once. Its
// completed payload is byte-equal to the payload struct's encoding,
// json.Marshal(completedRec{ID, Info: Get(id)}); its GET and DELETE
// bodies are json.Marshal(Get(id)) plus a newline, and the listing's
// json.Marshal of every Get in submission order plus a newline; and
// the export shares the very bytes the job journaled — its submission,
// its checkpoint while it runs and its completion — instead of
// encoding them again.
func TestFinishedJobIsItsBytes(t *testing.T) {
	for _, node := range []string{"", "n1"} {
		t.Run("node="+node, func(t *testing.T) {
			var seen payloads
			park, parked, release := parkFirst()
			r := NewRegistryWithOptions(Options{
				PoolSize: 1, CheckpointEvery: 2, NodeID: node,
				OnRecord: seen.record, ConfigureJob: park,
			})
			defer drain(t, r)
			defer release()
			ts := httptest.NewServer(New(r).Handler())
			defer ts.Close()

			spec := smallSpec()
			spec.Batches = 40
			done, err := r.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			<-parked
			cp, ok := seen.last(done.ID, journal.TypeCheckpoint)
			if !ok {
				t.Fatal("no checkpoint record at the first checkpoint")
			}
			if exp := r.ExportRecords(done.ID); len(exp) != 3 || !sameBytes(exp[2].Data, cp.Data) {
				t.Fatal("the export does not share the journaled checkpoint payload")
			}
			release()
			waitState(t, r, done.ID, autopipe.JobDone)

			cancelled, err := r.Submit(hugeSpec())
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, r, cancelled.ID, autopipe.JobRunning)
			if _, err := r.CancelView(cancelled.ID); err != nil {
				t.Fatal(err)
			}
			waitState(t, r, cancelled.ID, autopipe.JobCancelled)

			for _, id := range []string{done.ID, cancelled.ID} {
				view := checkServed(t, r, ts.URL, id)
				info, _ := r.Get(id)
				if info.Node != node {
					t.Fatalf("%s presents node %q, want %q", id, info.Node, node)
				}
				rec, ok := seen.last(id, journal.TypeCompleted)
				if !ok {
					t.Fatalf("%s: no completed record", id)
				}
				if want := mustMarshal(t, completedRec{ID: id, Info: info}); !bytes.Equal(rec.Data, want) {
					t.Fatalf("%s completed payload\n%s\nwant\n%s", id, rec.Data, want)
				}
				if !bytes.Contains(rec.Data, view) {
					t.Fatalf("%s: the served view is not the journaled one", id)
				}
				sub, _ := seen.last(id, journal.TypeSubmitted)
				exp := r.ExportRecords(id)
				if len(exp) != 2 || !sameBytes(exp[0].Data, sub.Data) || !sameBytes(exp[1].Data, rec.Data) {
					t.Fatalf("%s: the export does not share the journaled payloads", id)
				}
			}
			var list []JobInfo
			for _, id := range []string{done.ID, cancelled.ID} {
				info, _ := r.Get(id)
				list = append(list, info)
			}
			want := mustMarshal(t, map[string]any{"jobs": list})
			if code, body := rawBody(t, http.MethodGet, ts.URL+"/v1/jobs"); code != http.StatusOK || !bytes.Equal(body, append(want, '\n')) {
				t.Fatalf("GET /v1/jobs = %d\n%s\nwant json.Marshal of each Get in submission order and a newline:\n%s", code, body, want)
			}
		})
	}
}

// decodedView is how a restored finished job is to be presented: the
// completed record's info, decoded, with Node replaced by the host's id
// when it has one and Fence by the job's epoch, encoded by json.Marshal.
func decodedView(t *testing.T, completed []byte, node string, fence uint64) []byte {
	t.Helper()
	var done completedRec
	if err := json.Unmarshal(completed, &done); err != nil {
		t.Fatal(err)
	}
	if node != "" {
		done.Info.Node = node
	}
	done.Info.Fence = fence
	return mustMarshal(t, done.Info)
}

// finishedRecords runs a done, a cancelled and a watchdog-failed job
// on a registry hosted as node n1 and returns their records written the
// way a registry that kept each result as a JobInfo wrote them — a
// submission and a completion per job, each json.Marshal of the payload
// struct — plus three copies of the done job in forms the registry does
// not write but replay must accept: under the id legacy with its completion indented, under
// annotated with a field after the info, and under decision-log with
// the decision_log field a result no longer has.
func finishedRecords(t *testing.T) ([]journal.Record, []string) {
	t.Helper()
	gate := make(chan struct{})
	r := NewRegistryWithOptions(Options{
		PoolSize: 1, CheckpointEvery: 2, NodeID: "n1", WatchdogQuiet: -1,
		ConfigureJob: func(cfg *autopipe.JobConfig) {
			if cfg.CheckEvery == 3 {
				cfg.Predictor = blockingPredictor{gate: gate}
			}
		},
	})
	defer drain(t, r)
	done, err := r.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, done.ID, autopipe.JobDone)
	cancelled, err := r.Submit(hugeSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, cancelled.ID, autopipe.JobRunning)
	r.CancelView(cancelled.ID)
	waitState(t, r, cancelled.ID, autopipe.JobCancelled)
	stuck := hugeSpec()
	stuck.CheckEvery = 3
	stuck.Trace = []TraceEvent{{At: 0.1, Kind: "bandwidth", Gbps: 1}}
	failed, err := r.Submit(stuck)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, failed.ID, autopipe.JobRunning)
	start := time.Now()
	r.watchdogScan(start)
	waitFor(t, "the watchdog kill", func() bool {
		r.watchdogScan(start.Add(time.Hour))
		info, _ := r.Get(failed.ID)
		return info.Status.State == autopipe.JobFailed
	})
	close(gate)
	if err := r.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	var recs []journal.Record
	var ids []string
	add := func(id string, info JobInfo, completed []byte) {
		sub := mustMarshal(t, submittedRec{ID: id, Created: info.Created, Spec: info.Spec})
		recs = append(recs,
			journal.Record{Type: journal.TypeSubmitted, JobID: id, Fence: 1, Data: sub},
			journal.Record{Type: journal.TypeCompleted, JobID: id, Fence: 1, Data: completed})
		ids = append(ids, id)
	}
	for _, id := range []string{done.ID, cancelled.ID, failed.ID} {
		info, err := r.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		add(id, info, mustMarshal(t, completedRec{ID: id, Info: info}))
	}
	info, _ := r.Get(done.ID)
	info.ID = "legacy"
	indented, err := json.MarshalIndent(completedRec{ID: "legacy", Info: info}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	add("legacy", info, indented)
	info.ID = "annotated"
	annotated := mustMarshal(t, completedRec{ID: "annotated", Info: info})
	annotated = append(annotated[:len(annotated)-1], `,"note":"hand-written"}`...)
	add("annotated", info, annotated)
	// A result that still carries the rendered decision_log lines
	// results once had; the field is gone from every view.
	info.ID = "decision-log"
	withLog := mustMarshal(t, completedRec{ID: "decision-log", Info: info})
	if !bytes.Contains(withLog, []byte(`"result":{`)) {
		t.Fatal("the done job has no result")
	}
	withLog = bytes.Replace(withLog, []byte(`"result":{`), []byte(`"result":{"decision_log":["kept the plan"],`), 1)
	add("decision-log", info, withLog)
	return recs, ids
}

// TestRestoredViewsMatchDecodedRecord: finished jobs replayed from
// records encoded from JobInfo values — by Recover from a journal on
// disk, and by Adopt, each on a registry with no node id, with the id
// of the node that finished them and with another — present exactly
// their decoded record with the host's overrides, over HTTP and
// through Get. A recovered registry's
// compacted journal recovers to the same views again.
func TestRestoredViewsMatchDecodedRecord(t *testing.T) {
	recs, ids := finishedRecords(t)
	completed := map[string][]byte{}
	for _, rec := range recs {
		if rec.Type == journal.TypeCompleted {
			completed[rec.JobID] = rec.Data
		}
	}
	check := func(t *testing.T, r *Registry, node string, fence uint64) {
		t.Helper()
		ts := httptest.NewServer(New(r).Handler())
		defer ts.Close()
		for _, id := range ids {
			want := decodedView(t, completed[id], node, fence)
			if got := checkServed(t, r, ts.URL, id); !bytes.Equal(got, want) {
				t.Fatalf("%s presents\n%s\nits decoded record presents\n%s", id, got, want)
			}
		}
	}
	for _, node := range []string{"", "n1", "n2"} {
		t.Run("recover/node="+node, func(t *testing.T) {
			dir := t.TempDir()
			jl, _, err := journal.Open(dir, journal.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if err := jl.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			jl.Close()
			for round := 0; round < 2; round++ {
				jl, replay, err := journal.Open(dir, journal.Options{NoSync: true})
				if err != nil {
					t.Fatal(err)
				}
				r := NewRegistryWithOptions(Options{PoolSize: 1, NodeID: node, Journal: jl})
				stats, err := r.Recover(replay)
				if err != nil || stats.Completed != len(ids) {
					t.Fatalf("round %d: Recover = %+v, %v", round, stats, err)
				}
				check(t, r, node, 1)
				drain(t, r)
				jl.Close()
			}
		})
		t.Run("adopt/node="+node, func(t *testing.T) {
			r := NewRegistryWithOptions(Options{PoolSize: 1, NodeID: node})
			defer drain(t, r)
			stats, err := r.Adopt(recs)
			if err != nil || stats.Completed != len(ids) {
				t.Fatalf("Adopt = %+v, %v", stats, err)
			}
			check(t, r, node, 2)
		})
	}
}

// TestCompactRecoverRoundTripsEveryPhase: a forced compaction followed
// by Recover rebuilds every phase a job can be in — queued, running
// without a checkpoint, running with one, done, cancelled and failed by
// the watchdog — and a finished job presents byte for byte what it
// presented before the crash.
func TestCompactRecoverRoundTripsEveryPhase(t *testing.T) {
	dir := t.TempDir()
	jl, _, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	// Jobs are told apart by CheckEvery: 3 blocks the predictor (the
	// watchdog's victim), 50 parks before its first checkpoint is
	// journaled and 60 after it.
	var (
		beforeCP, afterCP = make(chan struct{}), make(chan struct{})
		unpark            = make(chan struct{})
	)
	r := NewRegistryWithOptions(Options{
		PoolSize: 2, CheckpointEvery: 2, NodeID: "n1", WatchdogQuiet: -1, Journal: jl,
		ConfigureJob: func(cfg *autopipe.JobConfig) {
			journaled := cfg.OnCheckpoint
			var once sync.Once
			switch cfg.CheckEvery {
			case 3:
				cfg.Predictor = blockingPredictor{gate: gate}
			case 50:
				cfg.OnCheckpoint = func(cp autopipe.Checkpoint) {
					once.Do(func() { close(beforeCP); <-unpark })
					journaled(cp)
				}
			case 60:
				cfg.OnCheckpoint = func(cp autopipe.Checkpoint) {
					journaled(cp)
					once.Do(func() { close(afterCP); <-unpark })
				}
			}
		},
	})
	submit := func(spec JobSpec) string {
		info, err := r.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return info.ID
	}
	done := submit(smallSpec())
	waitState(t, r, done, autopipe.JobDone)
	cancelled := submit(hugeSpec())
	waitState(t, r, cancelled, autopipe.JobRunning)
	r.CancelView(cancelled)
	waitState(t, r, cancelled, autopipe.JobCancelled)
	stuck := hugeSpec()
	stuck.CheckEvery = 3
	stuck.Trace = []TraceEvent{{At: 0.1, Kind: "bandwidth", Gbps: 1}}
	failed := submit(stuck)
	waitState(t, r, failed, autopipe.JobRunning)
	start := time.Now()
	r.watchdogScan(start)
	waitFor(t, "the watchdog kill", func() bool {
		r.watchdogScan(start.Add(time.Hour))
		info, _ := r.Get(failed)
		return info.Status.State == autopipe.JobFailed
	})
	close(gate)
	waitFor(t, "the killed job to finish", func() bool {
		m, _ := r.lookup(failed)
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.done != nil
	})
	parkSpec := func(checkEvery int) JobSpec {
		spec := hugeSpec()
		spec.CheckEvery = checkEvery
		return spec
	}
	running := submit(parkSpec(50))
	<-beforeCP
	resumed := submit(parkSpec(60))
	<-afterCP
	queued := submit(smallSpec())

	views := map[string][]byte{}
	for _, id := range []string{done, cancelled, failed} {
		v, err := r.View(id)
		if err != nil {
			t.Fatal(err)
		}
		views[id] = v
	}
	m, _ := r.lookup(resumed)
	m.mu.Lock()
	cpIter := m.cp.Iterations
	m.mu.Unlock()
	r.compact(true)
	// Crash: nothing more reaches the journal.
	r.Kill()
	close(unpark)
	drain(t, r)
	jl.Close()

	for round := 0; round < 2; round++ {
		jl, replay, err := journal.Open(dir, journal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		// One slot, held by the first live job popped: every live job
		// keeps the state Recover gave it while it is checked.
		hold := make(chan struct{})
		r2 := NewRegistryWithOptions(Options{
			PoolSize: 1, CheckpointEvery: 2, NodeID: "n1", WatchdogQuiet: -1, Journal: jl,
			ConfigureJob: func(*autopipe.JobConfig) { <-hold },
		})
		stats, err := r2.Recover(replay)
		if err != nil {
			t.Fatal(err)
		}
		want := RecoveryStats{Requeued: 1, Resumed: 1, Restarted: 1, Completed: 3}
		if stats != want {
			t.Fatalf("round %d: Recover = %+v, want %+v", round, stats, want)
		}
		for id, view := range views {
			got, err := r2.View(id)
			if err != nil || !bytes.Equal(got, view) {
				t.Fatalf("round %d: %s presents\n%s\nbefore the crash\n%s", round, id, got, view)
			}
		}
		for id, iter := range map[string]int{running: 0, resumed: cpIter, queued: 0} {
			info, err := r2.Get(id)
			if err != nil || info.Status.State != autopipe.JobQueued || info.Status.Iteration != iter {
				t.Fatalf("round %d: %s = %+v, %v; want queued at iteration %d", round, id, info.Status, err, iter)
			}
		}
		r2.Kill()
		close(hold)
		drain(t, r2)
		jl.Close()
	}
}

// TestFreezeFailureFreezesFailedView: a view that cannot be encoded
// freezes as a failed view naming the error, still under the completed
// payload's canonical form.
func TestFreezeFailureFreezesFailedView(t *testing.T) {
	info := JobInfo{
		ID: "job-0001", Spec: smallSpec(), Node: "n1", Fence: 3,
		Status: autopipe.JobStatus{State: autopipe.JobDone, Iteration: 10, Batches: 10, Throughput: math.NaN()},
		Result: &autopipe.JobResult{},
	}
	f, ok := freeze("job-0001", info)
	if ok {
		t.Fatal("freeze of a NaN throughput reported success")
	}
	got := f.decode()
	if got.Status.State != autopipe.JobFailed || !strings.Contains(got.Status.Error, "freeze") ||
		got.Result != nil || got.Status.Iteration != 10 || got.Node != "n1" || got.Fence != 3 {
		t.Fatalf("failed freeze presents %+v", got)
	}
	if f.sum.state != autopipe.JobFailed {
		t.Fatalf("failed freeze summarises state %s", f.sum.state)
	}
	if want := mustMarshal(t, completedRec{ID: "job-0001", Info: got}); !bytes.Equal(f.rec, want) {
		t.Fatalf("failed freeze payload\n%s\nwant\n%s", f.rec, want)
	}
	if want := mustMarshal(t, got); !bytes.Equal(f.view, want) {
		t.Fatalf("failed freeze view\n%s\nwant\n%s", f.view, want)
	}
}

// tinyFinished runs one 2-layer 1-batch job to completion and returns
// its finished view, the template for retainedRecords.
func tinyFinished(tb testing.TB) JobInfo {
	tb.Helper()
	src := NewRegistry(1)
	defer src.Shutdown(context.Background())
	first, err := src.Submit(JobSpec{Model: "uniform", Uniform: &UniformSpec{Layers: 2}, Batches: 1})
	if err != nil {
		tb.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if info, _ := src.Get(first.ID); info.Status.State == autopipe.JobDone {
			return info
		}
		if time.Now().After(deadline) {
			tb.Fatal("the template job did not finish")
		}
	}
}

// retainedRecords is the record stream of n finished jobs job-0001…,
// each a copy of info under its own id.
func retainedRecords(tb testing.TB, info JobInfo, n int) []journal.Record {
	tb.Helper()
	recs := make([]journal.Record, 0, 2*n)
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("job-%04d", i)
		info.ID = id
		sub, _ := json.Marshal(submittedRec{ID: id, Created: info.Created, Spec: info.Spec})
		done, err := json.Marshal(completedRec{ID: id, Info: info})
		if err != nil {
			tb.Fatal(err)
		}
		recs = append(recs,
			journal.Record{Type: journal.TypeSubmitted, JobID: id, Fence: 1, Data: sub},
			journal.Record{Type: journal.TypeCompleted, JobID: id, Fence: 1, Data: done})
	}
	return recs
}

// retaining is a journal-less registry recovered from n finished jobs.
func retaining(tb testing.TB, info JobInfo, n int) *Registry {
	tb.Helper()
	r := NewRegistryWithOptions(Options{PoolSize: 1, WatchdogQuiet: -1})
	if _, err := r.Recover(retainedRecords(tb, info, n)); err != nil {
		tb.Fatal(err)
	}
	return r
}

var exportSink []journal.Record

// TestExportOneIgnoresRetainedJobs: exporting one job looks up that job
// alone, so what ExportRecords(id) allocates does not grow with the
// jobs the registry retains. A walk over every retained job allocates
// ~80 KB per call at 5,000 jobs against ~340 B at 10.
func TestExportOneIgnoresRetainedJobs(t *testing.T) {
	info := tinyFinished(t)
	perCall := func(n int) uint64 {
		r := retaining(t, info, n)
		defer drain(t, r)
		id := fmt.Sprintf("job-%04d", n)
		if exp := r.ExportRecords(id); len(exp) != 2 || exp[0].JobID != id || exp[1].Type != journal.TypeCompleted {
			t.Fatalf("retained=%d: ExportRecords(%s) = %d records, want its submission and completion", n, id, len(exp))
		}
		const calls = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			exportSink = r.ExportRecords(id)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / calls
	}
	small, big := perCall(10), perCall(5000)
	if big > 2*small {
		t.Fatalf("ExportRecords(id) allocates %d B with 5,000 retained jobs, %d B with 10", big, small)
	}
}

// BenchmarkExportOne times ExportRecords of one finished job on a
// registry retaining n finished jobs.
func BenchmarkExportOne(b *testing.B) {
	info := tinyFinished(b)
	for _, n := range []int{10, 1000, 5000} {
		b.Run(fmt.Sprintf("retained=%d", n), func(b *testing.B) {
			r := retaining(b, info, n)
			defer r.Shutdown(context.Background())
			id := fmt.Sprintf("job-%04d", n/2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exportSink = r.ExportRecords(id)
			}
		})
	}
}

// BenchmarkForcedCompaction times one forced compaction of a registry
// retaining n finished jobs, each with the completed payload of a real
// finished job.
func BenchmarkForcedCompaction(b *testing.B) {
	info := tinyFinished(b)
	for _, n := range []int{500, 2000, 8000} {
		b.Run(fmt.Sprintf("retained=%d", n), func(b *testing.B) {
			jl, _, err := journal.Open(b.TempDir(), journal.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer jl.Close()
			r := NewRegistryWithOptions(Options{PoolSize: 1, Journal: jl})
			defer r.Shutdown(context.Background())
			if _, err := r.Recover(retainedRecords(b, info, n)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.compact(true)
			}
			b.StopTimer()
			if c := r.Counters(); c.JournalErrors != 0 {
				b.Fatalf("%d journal errors", c.JournalErrors)
			}
		})
	}
}

// BenchmarkRetainedFinishedJob reports the live heap a registry keeps
// for each finished job it retains (retained-B/job): b.N jobs run to
// completion one after another on a journal-less registry, and the heap
// is read after a full collection before the first and after the last.
// Nothing evicts a finished job, so this is how fast a long-lived
// daemon's heap grows with the jobs it has finished.
func BenchmarkRetainedFinishedJob(b *testing.B) {
	for _, tc := range []struct {
		name string
		spec JobSpec
	}{
		{"soak", smallSpec()},
		{"tiny", JobSpec{Model: "uniform", Uniform: &UniformSpec{Layers: 2}, Batches: 1}},
	} {
		b.Run("spec="+tc.name, func(b *testing.B) {
			r := NewRegistry(1)
			defer r.Shutdown(context.Background())
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			before := ms.HeapAlloc
			for i := 0; i < b.N; i++ {
				info, err := r.Submit(tc.spec)
				if err != nil {
					b.Fatal(err)
				}
				for deadline := time.Now().Add(30 * time.Second); info.Status.State != autopipe.JobDone; {
					if time.Now().After(deadline) {
						b.Fatalf("job %s did not finish: %s", info.ID, info.Status.State)
					}
					time.Sleep(100 * time.Microsecond)
					info, _ = r.Get(info.ID)
				}
			}
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(int64(ms.HeapAlloc)-int64(before))/float64(b.N), "retained-B/job")
		})
	}
}
