package bench

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"autopipe"
	"autopipe/internal/server"
)

// reqHeader carries the generator's request ID ("a<arrival index>") on
// every submit and poll of one job, so the traced run's spans of one
// job share it. Daemons ignore it.
const reqHeader = "X-Bench-Req"

// pollEvery is the completion-polling period. Turnaround is quantised to
// it, identically on every commit.
const pollEvery = 5 * time.Millisecond

// jobRec is the generator's record of one arrival. Times are offsets from
// the start of the load phase.
type jobRec struct {
	Arrival
	index    int           // position in the schedule
	status   int           // HTTP status of the submit; 0 = transport error
	id       string        // job id from the 201
	late     time.Duration // submit start − due
	answered time.Duration // submit response received − due
	doneAt   time.Duration // poll that saw a terminal state
	state    autopipe.JobState
	polls    int
	// resultless counts polls that saw the done state without a result.
	resultless int
	info       *server.JobInfo // final view of a done job
	problem    string          // why the job did not complete, if it did not
}

func (j *jobRec) accepted() bool { return j.status == http.StatusCreated }

func (j *jobRec) shed() bool {
	return j.status == http.StatusTooManyRequests || j.status == http.StatusServiceUnavailable
}

// genConfig parameterises one load phase.
type genConfig struct {
	targets  []string
	bodies   [][]byte
	arrivals []Arrival
	tracer   *tracer // nil in the untraced run
}

// task is one request a worker performs.
type task struct {
	job  *jobRec
	poll bool
}

// pollItem is a scheduled completion poll.
type pollItem struct {
	due time.Duration
	job *jobRec
}

type pollHeap []pollItem

func (h pollHeap) Len() int           { return len(h) }
func (h pollHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h pollHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *pollHeap) Push(x any)        { *h = append(*h, x.(pollItem)) }
func (h *pollHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// generator is an open-loop load generator with one request worker per
// CPU, which bounds the requests in flight. Submissions and polls share
// the workers; a due submission always goes before a due poll, so polling
// load delays turnaround readings rather than the arrival schedule.
type generator struct {
	cfg     genConfig
	workers int
	client  *http.Client
	start   time.Time
	jobs    []jobRec

	nextSubmit atomic.Int64 // round-robin cursors over the targets
	nextPoll   atomic.Int64

	mu    sync.Mutex
	polls pollHeap
	busy  int // tasks handed out and not yet finished
	nudge chan struct{}
}

func newGenerator(cfg genConfig) *generator {
	jobs := make([]jobRec, len(cfg.arrivals))
	for i, a := range cfg.arrivals {
		jobs[i].Arrival, jobs[i].index = a, i
	}
	workers := runtime.NumCPU()
	tr := &http.Transport{
		MaxIdleConns:        workers * len(cfg.targets),
		MaxIdleConnsPerHost: workers,
	}
	return &generator{
		cfg:     cfg,
		workers: workers,
		client:  &http.Client{Transport: tr, Timeout: 30 * time.Second},
		jobs:    jobs,
		nudge:   make(chan struct{}, 1),
	}
}

func (g *generator) since() time.Duration { return time.Since(g.start) }

// run drives the load phase and the drain, and returns when every
// accepted job reached a terminal state or the drain window closed. The
// generator's goroutines carry the pprof label role=gen so the traced
// run can separate their CPU from the daemons'.
func (g *generator) run(ctx context.Context) {
	defer g.client.CloseIdleConnections()
	pprof.Do(ctx, pprof.Labels("role", "gen"), func(ctx context.Context) {
		tasks := make(chan task)
		var wg sync.WaitGroup
		for i := 0; i < g.workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for t := range tasks {
					g.do(ctx, t)
				}
			}()
		}
		g.start = time.Now()
		g.dispatch(ctx, tasks)
		close(tasks)
		wg.Wait()
	})
}

// dispatch hands due work to the workers until none is left or the drain
// deadline passes.
func (g *generator) dispatch(ctx context.Context, tasks chan<- task) {
	var window time.Duration
	if n := len(g.jobs); n > 0 {
		window = g.jobs[n-1].At
	}
	deadline := window + drainWindow
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	next := 0
	for {
		now := g.since()
		if now > deadline {
			return
		}
		g.mu.Lock()
		var t task
		ready := false
		wait := deadline - now
		switch {
		case next < len(g.jobs) && g.jobs[next].At <= now:
			t, ready = task{job: &g.jobs[next]}, true
			next++
		case len(g.polls) > 0 && g.polls[0].due <= now:
			t, ready = task{job: heap.Pop(&g.polls).(pollItem).job, poll: true}, true
		default:
			if next < len(g.jobs) {
				wait = min(wait, g.jobs[next].At-now)
			}
			if len(g.polls) > 0 {
				wait = min(wait, g.polls[0].due-now)
			}
		}
		if ready {
			g.busy++
		}
		idle := !ready && next == len(g.jobs) && len(g.polls) == 0 && g.busy == 0
		g.mu.Unlock()
		if idle {
			return
		}
		if ready {
			select {
			case tasks <- t:
			case <-ctx.Done():
				return
			}
			continue
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-g.nudge:
			if !timer.Stop() {
				<-timer.C
			}
		case <-ctx.Done():
			return
		}
	}
}

// finish retires a task, scheduling the job's next poll after wait when
// it needs one.
func (g *generator) finish(j *jobRec, pollAgain bool, wait time.Duration) {
	g.mu.Lock()
	if pollAgain {
		heap.Push(&g.polls, pollItem{due: g.since() + wait, job: j})
	}
	g.busy--
	g.mu.Unlock()
	select {
	case g.nudge <- struct{}{}:
	default:
	}
}

func (g *generator) do(ctx context.Context, t task) {
	if t.poll {
		g.finish(t.job, g.poll(ctx, t.job), pollEvery)
		return
	}
	g.finish(t.job, g.submit(ctx, t.job), t.job.FirstPoll)
}

// submit POSTs one job; it reports whether the job was accepted and so
// needs polling.
func (g *generator) submit(ctx context.Context, j *jobRec) bool {
	idx := int(g.nextSubmit.Add(1)-1) % len(g.cfg.targets)
	start := g.since()
	j.late = start - j.At
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		g.cfg.targets[idx]+"/v1/jobs", bytes.NewReader(g.cfg.bodies[j.Spec]))
	if err != nil {
		j.problem = err.Error()
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqHeader, j.reqID())
	body, status, err := g.fetch(req)
	end := g.since()
	j.status, j.answered = status, end-j.At
	switch {
	case err != nil:
		j.status, j.problem = 0, err.Error()
	case !j.accepted() && !j.shed():
		j.problem = fmt.Sprintf("submit answered %d: %s", status, body)
	}
	if j.accepted() {
		var v struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(body, &v) != nil || v.ID == "" {
			j.status, j.problem = 0, fmt.Sprintf("201 without a job id: %s", body)
		}
		j.id = v.ID
	}
	if tr := g.cfg.tracer; tr != nil {
		tr.add(Span{Name: "gen.submit", Start: tr.offset(g.start, start), End: tr.offset(g.start, end),
			Req: j.reqID(), Job: j.id, Status: j.status})
	}
	return j.accepted()
}

// poll GETs one job's status; it reports whether to poll again.
func (g *generator) poll(ctx context.Context, j *jobRec) bool {
	idx := int(g.nextPoll.Add(1)-1) % len(g.cfg.targets)
	start := g.since()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.cfg.targets[idx]+"/v1/jobs/"+j.id, nil)
	if err != nil {
		j.problem = err.Error()
		return false
	}
	req.Header.Set(reqHeader, j.reqID())
	body, status, err := g.fetch(req)
	end := g.since()
	j.polls++
	if tr := g.cfg.tracer; tr != nil {
		tr.add(Span{Name: "gen.poll", Start: tr.offset(g.start, start), End: tr.offset(g.start, end),
			Req: j.reqID(), Job: j.id, Status: status})
	}
	if err != nil || status != http.StatusOK {
		j.problem = fmt.Sprintf("poll status %d: %v", status, err)
		return false
	}
	var v struct {
		Status struct {
			State autopipe.JobState `json:"state"`
			Error string            `json:"error"`
		} `json:"status"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		j.problem = err.Error()
		return false
	}
	switch v.Status.State {
	case autopipe.JobQueued, autopipe.JobRunning:
		return true
	case autopipe.JobDone:
		var info server.JobInfo
		if err := json.Unmarshal(body, &info); err != nil {
			j.problem = err.Error()
			return false
		}
		if info.Result == nil {
			// The registry publishes the done state a moment before the
			// result; a client polls again.
			j.resultless++
			return true
		}
		j.info = &info
	default:
		j.problem = fmt.Sprintf("job %s ended %s: %s", j.id, v.Status.State, v.Status.Error)
	}
	j.state = v.Status.State
	j.doneAt = end
	return false
}

// fetch performs one request and reads the whole body.
func (g *generator) fetch(req *http.Request) ([]byte, int, error) {
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

func (j *jobRec) reqID() string { return "a" + strconv.Itoa(j.index) }
