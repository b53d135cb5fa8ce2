package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autopipe"
	"autopipe/internal/journal"
)

// Span is one timed interval at a layer boundary. Times are nanoseconds
// from the tracer's origin; Parent is the ID of the enclosing span (0 =
// none). Req is the generator's request ID; Job the job id, when known.
type Span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent,omitempty"`
	Name      string `json:"name"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	Req       string `json:"req,omitempty"`
	Job       string `json:"job,omitempty"`
	Node      string `json:"node,omitempty"`
	Status    int    `json:"status,omitempty"`
	Forwarded bool   `json:"forwarded,omitempty"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// scope is what a goroutine is doing on behalf of the traced daemon: an
// HTTP handler (span is its route span) or a running job (span is its
// job.run span).
type scope struct {
	span  int
	start int64
	req   string
	job   string
	node  string
}

// tracer records spans from outside the daemon's code: an HTTP
// middleware around each node's handler, the registry's OnRecord and
// ConfigureJob hooks, and a timing RoundTripper on the fleet's peer
// client. The hooks receive no request context, so a handler's route
// span reaches the journal hook and the peer client through the
// goroutine that runs all three (see goid).
type tracer struct {
	origin time.Time

	mu     sync.Mutex
	spans  []Span
	queued map[string]int64 // job id → submitted-record time

	scopes sync.Map // goroutine id → *scope

	journalBytes atomic.Int64 // on-disk frame bytes of the records journaled
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), queued: map[string]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// offset converts a generator time (an offset from its own start) to the
// tracer's clock.
func (t *tracer) offset(genStart time.Time, d time.Duration) int64 {
	return int64(genStart.Sub(t.origin) + d)
}

// add records a finished span and returns its ID.
func (t *tracer) add(s Span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens a span that end closes.
func (t *tracer) begin(s Span) int {
	s.Start = t.now()
	return t.add(s)
}

func (t *tracer) end(id, status int) {
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Status = status
	t.mu.Unlock()
}

func (t *tracer) scopeOf(g uint64) *scope {
	if v, ok := t.scopes.Load(g); ok {
		return v.(*scope)
	}
	return nil
}

// goid returns the current goroutine's id, parsed from the header line
// of its stack trace ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [32]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = b[len("goroutine "):]
	var id uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// statusWriter captures a handler's response status.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// middleware records one span per request, named by method and route.
func (t *tracer) middleware(node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sc := &scope{start: t.now(), req: r.Header.Get(reqHeader), node: node}
		sc.span = t.add(Span{Name: "http " + r.Method + " " + route(r.URL.Path), Start: sc.start,
			Req: sc.req, Node: node, Forwarded: r.Header.Get("X-Autopipe-Forwarded") != ""})
		g := goid()
		t.scopes.Store(g, sc)
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		t.scopes.Delete(g)
		t.end(sc.span, sw.status)
	})
}

// route replaces the job id in a per-job path with its pattern.
func route(path string) string {
	const jobs = "/v1/jobs/"
	if strings.HasPrefix(path, jobs) && len(path) > len(jobs) {
		return jobs + "{id}"
	}
	return path
}

// frameBytes is a record's on-disk size: the journal's 8-byte frame
// header plus type, id length, id, fence and data.
func frameBytes(rec journal.Record) int64 {
	return int64(8 + 1 + 2 + len(rec.JobID) + 8 + len(rec.Data))
}

// onRecord is server.Options.OnRecord. The submitted record closes the
// registry.durable span of the handler on this goroutine; the running
// and completed records bound the job's queue and run spans, and the
// running record makes the job's goroutine findable by its checkpoints.
func (t *tracer) onRecord(node string) func(journal.Record) {
	return func(rec journal.Record) {
		now := t.now()
		t.journalBytes.Add(frameBytes(rec))
		g := goid()
		switch rec.Type {
		case journal.TypeSubmitted:
			if sc := t.scopeOf(g); sc != nil {
				t.add(Span{Name: "registry.durable", Parent: sc.span, Start: sc.start, End: now,
					Req: sc.req, Job: rec.JobID, Node: node})
			}
			t.mu.Lock()
			t.queued[rec.JobID] = now
			t.mu.Unlock()
		case journal.TypeState:
			t.mu.Lock()
			sub, ok := t.queued[rec.JobID]
			t.mu.Unlock()
			if ok {
				t.add(Span{Name: "job.queue", Start: sub, End: now, Job: rec.JobID, Node: node})
			}
			id := t.add(Span{Name: "job.run", Start: now, Job: rec.JobID, Node: node})
			t.scopes.Store(g, &scope{span: id, start: now, job: rec.JobID, node: node})
		case journal.TypeCompleted:
			if sc := t.scopeOf(g); sc != nil && sc.job == rec.JobID {
				t.scopes.Delete(g)
				t.end(sc.span, 0)
			}
		}
	}
}

// configureJob is server.Options.ConfigureJob: it times the checkpoint
// callback the registry installed (which journals the checkpoint).
func (t *tracer) configureJob(cfg *autopipe.JobConfig) {
	inner := cfg.OnCheckpoint
	if inner == nil {
		return
	}
	cfg.OnCheckpoint = func(cp autopipe.Checkpoint) {
		start := t.now()
		inner(cp)
		s := Span{Name: "job.checkpoint", Start: start, End: t.now()}
		if sc := t.scopeOf(goid()); sc != nil {
			s.Parent, s.Job, s.Node = sc.span, sc.job, sc.node
		}
		t.add(s)
	}
}

// transport times the fleet's peer calls as fleet.rpc.<path> spans,
// parented to the handler span of the calling goroutine, whose request
// ID it forwards so the peer's spans share it.
type transport struct {
	t    *tracer
	node string
	base http.RoundTripper
}

func (tr transport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := Span{Name: "fleet.rpc." + route(req.URL.Path), Node: tr.node}
	if sc := tr.t.scopeOf(goid()); sc != nil {
		s.Parent, s.Req = sc.span, sc.req
		req = req.Clone(req.Context())
		req.Header.Set(reqHeader, sc.req)
	}
	id := tr.t.begin(s)
	resp, err := tr.base.RoundTrip(req)
	status := 0
	if err == nil {
		status = resp.StatusCode
	}
	tr.t.end(id, status)
	return resp, err
}

// finish returns the spans with job-level spans given the request ID of
// the submission that created their job.
func (t *tracer) finish() []Span {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	reqOf := map[string]string{}
	for _, s := range spans {
		if s.Name == "gen.submit" && s.Job != "" {
			reqOf[s.Job] = s.Req
		}
	}
	for i := range spans {
		if spans[i].Req == "" && spans[i].Job != "" {
			spans[i].Req = reqOf[spans[i].Job]
		}
	}
	return spans
}

// selfTime sums each span name's self time — its duration minus the
// part of its interval covered by its children — in milliseconds.
func selfTime(spans []Span) map[string]float64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
