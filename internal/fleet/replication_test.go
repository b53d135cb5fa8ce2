package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autopipe"
	"autopipe/internal/journal"
	"autopipe/internal/server"
)

// replGate fails a node's outbound replicate POSTs while it is closed;
// every other peer call passes.
type replGate struct {
	base   http.RoundTripper
	closed atomic.Bool
}

func (g *replGate) RoundTrip(req *http.Request) (*http.Response, error) {
	if g.closed.Load() && req.URL.Path == "/v1/fleet/replicate" {
		return nil, errors.New("replication blocked")
	}
	return g.base.RoundTrip(req)
}

// replTap records every record that arrives at the replicate endpoint
// of the nodes it wraps.
type replTap struct {
	mu   sync.Mutex
	recs []journal.Record
}

func (tp *replTap) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/v1/fleet/replicate" {
			body, _ := io.ReadAll(req.Body)
			var rr replicateRequest
			if json.Unmarshal(body, &rr) == nil {
				tp.mu.Lock()
				tp.recs = append(tp.recs, rr.Records...)
				tp.mu.Unlock()
			}
			req.Body = io.NopCloser(bytes.NewReader(body))
		}
		h.ServeHTTP(w, req)
	})
}

// count returns how often each distinct record of job id arrived.
func (tp *replTap) count(id string) map[string]int {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	out := map[string]int{}
	for _, rec := range tp.recs {
		if rec.JobID == id {
			out[fmt.Sprintf("%d %s", rec.Type, rec.Data)]++
		}
	}
	return out
}

// startGatedTrio is startTrio with each node's replicate POSTs behind
// its own gate and every replicate request any node receives recorded
// in one tap.
func startGatedTrio(t *testing.T, hb time.Duration, mkOpts func(i int) server.Options) (nodes [3]*testNode, gates map[string]*replGate, tap *replTap) {
	t.Helper()
	gates, tap = map[string]*replGate{}, &replTap{}
	var seeds []string
	for i := range nodes {
		id := fmt.Sprintf("n%d", i+1)
		gate := &replGate{}
		gates[id] = gate
		out := func(base http.RoundTripper) http.RoundTripper { gate.base = base; return gate }
		nodes[i] = startWrappedNode(t, id, seeds, hb, mkOpts(i), out, tap.wrap)
		seeds = []string{nodes[0].n.cfg.Advertise}
	}
	waitFor(t, "membership convergence", func() bool {
		for _, tn := range nodes {
			if tn.n.ring.Len() != 3 {
				return false
			}
		}
		return true
	})
	t.Cleanup(func() {
		for _, tn := range nodes {
			tn.n.Kill()
		}
	})
	return nodes, gates, tap
}

// nodeByID finds a node by fleet id.
func nodeByID(nodes []*testNode, id string) *testNode {
	for _, tn := range nodes {
		if tn.n.ID() == id {
			return tn
		}
	}
	return nil
}

// submitVia submits spec through a gateway and returns the 201's view.
func submitVia(t *testing.T, gateway *testNode, spec server.JobSpec) server.JobInfo {
	t.Helper()
	var info server.JobInfo
	if code := doJSON(t, http.MethodPost, gateway.srv.URL+"/v1/jobs", spec, &info); code != http.StatusCreated {
		t.Fatalf("submit: status %d", code)
	}
	return info
}

// waitState waits for a job to reach state on the node hosting it.
func waitState(t *testing.T, host *testNode, id string, state autopipe.JobState) {
	t.Helper()
	waitFor(t, id+" "+string(state), func() bool {
		info, err := host.n.reg.Get(id)
		return err == nil && info.Status.State == state
	})
}

// replica returns a copy of what node holds of job id replicated from
// src, and whether it holds anything.
func replica(n *Node, src, id string) (jobReplica, bool) {
	n.store.mu.Lock()
	defer n.store.mu.Unlock()
	jr, ok := n.store.byNode[src][id]
	if !ok {
		return jobReplica{}, false
	}
	return *jr, true
}

// acknowledged reports whether every job n hosts is acknowledged, up to
// its latest record, by its successor.
func acknowledged(n *Node) bool {
	if len(n.unsynced(false)) > 0 {
		return false
	}
	n.ackMu.Lock()
	defer n.ackMu.Unlock()
	for _, a := range n.acks {
		if a.acked != a.version || a.inflight > 0 {
			return false
		}
	}
	return true
}

// replTraffic sums the records and replicate POSTs nodes have sent.
func replTraffic(nodes []*testNode) (records, posts int64) {
	for _, tn := range nodes {
		records += tn.n.replSent.Load()
		for p := range tn.n.replPosts {
			posts += tn.n.replPosts[p].Load()
		}
	}
	return records, posts
}

// TestIdleFleetResyncSendsNothing: once every job's successor has
// acknowledged its latest record, resyncs — periodic or called
// directly — send no records, while every successor holds its jobs'
// results.
func TestIdleFleetResyncSendsNothing(t *testing.T) {
	hb := 25 * time.Millisecond
	nodes, _, _ := startGatedTrio(t, hb, poolOpts(2))
	var jobs []server.JobInfo
	for i := 0; i < 9; i++ {
		jobs = append(jobs, submitVia(t, nodes[0], smallSpec()))
	}
	for _, job := range jobs {
		waitState(t, nodeByID(nodes[:], job.Node), job.ID, autopipe.JobDone)
	}
	waitFor(t, "every job acknowledged", func() bool {
		for _, tn := range nodes {
			if !acknowledged(tn.n) {
				return false
			}
		}
		return true
	})
	records, posts := replTraffic(nodes[:])
	for _, tn := range nodes {
		tn.n.resyncAll()
	}
	time.Sleep(4 * resyncTicks * hb) // about four periodic resyncs
	if r, p := replTraffic(nodes[:]); r != records || p != posts {
		t.Fatalf("idle fleet sent %d records in %d replicate POSTs", r-records, p-posts)
	}
	for _, job := range jobs {
		owner := nodeByID(nodes[:], job.Node).n
		succ := nodeByID(nodes[:], owner.ring.OwnerExcluding(job.ID, owner.ID())).n
		if jr, ok := replica(succ, owner.ID(), job.ID); !ok || jr.completed == nil {
			t.Fatalf("successor %s holds no result for %s", succ.ID(), job.ID)
		}
	}
}

// TestAdmissionRecordCrossesOnce: the synchronous admission sync carries
// a job's submitted record, and the stream does not send it again. Each
// node's worker is parked on a first job while the others are admitted,
// so nothing else of theirs exists to export: then no record of theirs
// crosses twice either, resyncs included.
func TestAdmissionRecordCrossesOnce(t *testing.T) {
	hb := 25 * time.Millisecond
	release := make(chan struct{})
	var unpark sync.Once
	defer unpark.Do(func() { close(release) })
	nodes, _, tap := startGatedTrio(t, hb, func(int) server.Options {
		var park sync.Once
		return server.Options{PoolSize: 1, CheckpointEvery: 2, ConfigureJob: func(*autopipe.JobConfig) {
			park.Do(func() { <-release })
		}}
	})
	var jobs []server.JobInfo
	for _, tn := range nodes {
		var info server.JobInfo
		req := fleetSubmitRequest{ID: "job-park-" + tn.n.ID(), Spec: smallSpec()}
		if code := doJSON(t, http.MethodPost, tn.srv.URL+"/v1/fleet/submit", req, &info); code != http.StatusCreated {
			t.Fatalf("parking submit: status %d", code)
		}
		jobs = append(jobs, info)
	}
	for i := 0; i < 6; i++ {
		jobs = append(jobs, submitVia(t, nodes[i%3], smallSpec()))
	}
	unpark.Do(func() { close(release) })
	for _, job := range jobs {
		waitState(t, nodeByID(nodes[:], job.Node), job.ID, autopipe.JobDone)
	}
	waitFor(t, "every job acknowledged", func() bool {
		for _, tn := range nodes {
			if !acknowledged(tn.n) {
				return false
			}
		}
		return true
	})
	time.Sleep(2 * resyncTicks * hb)
	for _, job := range jobs {
		seen := tap.count(job.ID)
		submitted := 0
		for rec, times := range seen {
			if strings.HasPrefix(rec, fmt.Sprintf("%d ", journal.TypeSubmitted)) {
				submitted += times
			}
			if times != 1 {
				t.Errorf("%s: record sent %d times: %.80s", job.ID, times, rec)
			}
		}
		if submitted != 1 || len(seen) < 3 {
			t.Errorf("%s: %d submitted records among %d distinct records, want 1 among submitted, running and completed", job.ID, submitted, len(seen))
		}
	}
}

// TestLostRecordReachesSuccessorAtResync: a record the owner fails to
// stream — its replicate POSTs blocked for a few milliseconds, far
// inside the suspect window — reaches the successor at the next
// resync, and killing the owner afterwards adopts the job in that
// latest state.
func TestLostRecordReachesSuccessorAtResync(t *testing.T) {
	nodes, gates, _ := startGatedTrio(t, 25*time.Millisecond, poolOpts(1))
	job := submitVia(t, nodes[0], hugeSpec())
	owner := nodeByID(nodes[:], job.Node)
	succ := nodeByID(nodes[:], owner.n.ring.OwnerExcluding(job.ID, owner.n.ID()))
	waitFor(t, "the running record on the successor", func() bool {
		jr, _ := replica(succ.n, owner.n.ID(), job.ID)
		return jr.state != nil
	})

	gates[owner.n.ID()].closed.Store(true)
	if _, err := owner.n.reg.CancelView(job.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, owner, job.ID, autopipe.JobCancelled)
	waitFor(t, "the completion to be lost", func() bool {
		owner.n.ackMu.Lock()
		defer owner.n.ackMu.Unlock()
		a := owner.n.acks[job.ID]
		return a.lost == a.version
	})
	if jr, _ := replica(succ.n, owner.n.ID(), job.ID); jr.completed != nil {
		t.Fatal("the completion crossed a blocked link")
	}
	gates[owner.n.ID()].closed.Store(false)

	waitFor(t, "the completion on the successor", func() bool {
		jr, _ := replica(succ.n, owner.n.ID(), job.ID)
		return jr.completed != nil
	})
	owner.n.Kill()
	waitState(t, succ, job.ID, autopipe.JobCancelled)
	if succ.n.adopted.Load() == 0 {
		t.Fatal("the successor did not adopt the job")
	}
}

// TestFailedAdmissionSyncRepairedByResync: an admission whose
// synchronous sync fails is still acknowledged with a 201, durable on
// the owner only; it is counted, and the next resync delivers the job
// to its successor.
func TestFailedAdmissionSyncRepairedByResync(t *testing.T) {
	nodes, gates, _ := startGatedTrio(t, 25*time.Millisecond, poolOpts(1))
	for _, g := range gates {
		g.closed.Store(true)
	}
	job := submitVia(t, nodes[0], smallSpec())
	owner := nodeByID(nodes[:], job.Node)
	succ := nodeByID(nodes[:], owner.n.ring.OwnerExcluding(job.ID, owner.n.ID()))
	if got := owner.n.admitSyncFailures.Load(); got != 1 {
		t.Fatalf("admission sync failures = %d, want 1", got)
	}
	if _, ok := replica(succ.n, owner.n.ID(), job.ID); ok {
		t.Fatal("the job reached its successor through a blocked link")
	}
	for _, g := range gates {
		g.closed.Store(false)
	}
	waitState(t, owner, job.ID, autopipe.JobDone)
	waitFor(t, "the job on its successor", func() bool {
		jr, _ := replica(succ.n, owner.n.ID(), job.ID)
		return jr.sub != nil && jr.completed != nil
	})
	resp, err := http.Get(owner.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"autopiped_fleet_admission_sync_failures_total 1",
		`autopiped_fleet_replicate_posts_total{path="admit"} 1`,
		"autopiped_fleet_resync_jobs_total ",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("owner metrics lack %q", want)
		}
	}
}

// TestJoiningNodeGetsItsShare: a node that joins a fleet whose jobs are
// all acknowledged receives, in full, every job it is now the
// successor of.
func TestJoiningNodeGetsItsShare(t *testing.T) {
	hb := 25 * time.Millisecond
	opts := server.Options{PoolSize: 2, CheckpointEvery: 2}
	n1 := startNode(t, "n1", nil, hb, opts)
	n2 := startNode(t, "n2", []string{n1.n.cfg.Advertise}, hb, opts)
	waitFor(t, "2-node membership", func() bool { return n1.n.ring.Len() == 2 && n2.n.ring.Len() == 2 })
	pair := []*testNode{n1, n2}
	var jobs []server.JobInfo
	for i := 0; i < 12; i++ {
		jobs = append(jobs, submitVia(t, n1, smallSpec()))
	}
	for _, job := range jobs {
		waitState(t, nodeByID(pair, job.Node), job.ID, autopipe.JobDone)
	}
	waitFor(t, "every job acknowledged", func() bool { return acknowledged(n1.n) && acknowledged(n2.n) })

	n3 := startNode(t, "n3", []string{n1.n.cfg.Advertise}, hb, opts)
	all := []*testNode{n1, n2, n3}
	defer func() {
		for _, tn := range all {
			tn.n.Kill()
		}
	}()
	waitFor(t, "3-node membership", func() bool {
		return n1.n.ring.Len() == 3 && n2.n.ring.Len() == 3 && n3.n.ring.Len() == 3
	})
	share := 0
	for _, job := range jobs {
		owner := nodeByID(pair, job.Node).n
		if owner.ring.OwnerExcluding(job.ID, owner.ID()) != "n3" {
			continue
		}
		share++
		waitFor(t, job.ID+" on the new node", func() bool {
			jr, _ := replica(n3.n, owner.ID(), job.ID)
			return jr.sub != nil && jr.completed != nil
		})
	}
	if share == 0 {
		t.Fatal("the new node is the successor of no job")
	}
}

// TestRestartedSuccessorGetsItsShareBack: a successor that restarts
// inside the failure detector's window comes back with an empty
// replica store; its owners see it hold fewer replicas than they have
// acknowledged and send their jobs to it again.
func TestRestartedSuccessorGetsItsShareBack(t *testing.T) {
	hb := 25 * time.Millisecond
	opts := server.Options{PoolSize: 2, CheckpointEvery: 2}
	nodes := startTrio(t, hb, func(int) server.Options { return opts })
	var jobs []server.JobInfo
	for i := 0; i < 9; i++ {
		jobs = append(jobs, submitVia(t, nodes[0], smallSpec()))
	}
	for _, job := range jobs {
		waitState(t, nodeByID(nodes[:], job.Node), job.ID, autopipe.JobDone)
	}
	waitFor(t, "every job acknowledged", func() bool {
		for _, tn := range nodes {
			if !acknowledged(tn.n) {
				return false
			}
		}
		return true
	})

	nodes[2].n.Kill()
	restarted := startNode(t, "n3", []string{nodes[0].n.cfg.Advertise}, hb, opts)
	live := []*testNode{nodes[0], nodes[1], restarted}
	defer func() {
		for _, tn := range live {
			tn.n.Kill()
		}
	}()
	share := 0
	for _, job := range jobs {
		if job.Node == "n3" {
			continue
		}
		owner := nodeByID(nodes[:], job.Node).n
		if owner.ring.OwnerExcluding(job.ID, owner.ID()) != "n3" {
			continue
		}
		share++
		waitFor(t, job.ID+" back on the restarted node", func() bool {
			jr, _ := replica(restarted.n, owner.ID(), job.ID)
			return jr.sub != nil && jr.completed != nil
		})
	}
	if share == 0 {
		t.Fatal("n3 is the successor of no job hosted elsewhere")
	}
	for _, tn := range live[:2] {
		if tn.n.members.isDead("n3") {
			t.Fatalf("%s declared the restarted node dead", tn.n.ID())
		}
	}
}

// pathGate fails a node's outbound requests to one path while it is
// closed; every other peer call passes.
type pathGate struct {
	base   http.RoundTripper
	path   string
	closed atomic.Bool
}

func (g *pathGate) RoundTrip(req *http.Request) (*http.Response, error) {
	if g.closed.Load() && req.URL.Path == g.path {
		return nil, errors.New(g.path + " blocked")
	}
	return g.base.RoundTrip(req)
}

// TestRestartedSuccessorAdoptsRunningJob: a successor that restarts
// empty and then receives a running job's streamed records holds no
// replica the job could be adopted from, so its owner must see the
// shortfall and send the job whole. The owner's count check is held
// off until the restarted node has acknowledged the job's new records;
// then killing the owner must let the restarted node adopt the job.
func TestRestartedSuccessorAdoptsRunningJob(t *testing.T) {
	hb := 25 * time.Millisecond
	release := make(chan struct{})
	var unpark sync.Once
	defer unpark.Do(func() { close(release) })
	var park sync.Once
	ownerOpts := server.Options{PoolSize: 1, CheckpointEvery: 2, ConfigureJob: func(*autopipe.JobConfig) {
		park.Do(func() { <-release })
	}}
	opts := server.Options{PoolSize: 1, CheckpointEvery: 2}
	counts := &pathGate{path: "/v1/cluster"}
	n1 := startWrappedNode(t, "n1", nil, hb, ownerOpts,
		func(base http.RoundTripper) http.RoundTripper { counts.base = base; return counts }, nil)
	seeds := []string{n1.n.cfg.Advertise}
	n2 := startNode(t, "n2", seeds, hb, opts)
	n3 := startNode(t, "n3", seeds, hb, opts)
	waitFor(t, "membership convergence", func() bool {
		return n1.n.ring.Len() == 3 && n2.n.ring.Len() == 3 && n3.n.ring.Len() == 3
	})

	// The parked job holds n1's only worker, so the job under test is
	// queued and produces no record until the parked one is released.
	idFor := func(prefix, succ string) string {
		for i := 0; ; i++ {
			if id := fmt.Sprintf("%s-%d", prefix, i); n1.n.ring.OwnerExcluding(id, "n1") == succ {
				return id
			}
		}
	}
	parked, id := idFor("job-parked", "n2"), idFor("job-long", "n3")
	for _, req := range []fleetSubmitRequest{{ID: parked, Spec: smallSpec()}, {ID: id, Spec: hugeSpec()}} {
		if code := doJSON(t, http.MethodPost, n1.srv.URL+"/v1/fleet/submit", req, nil); code != http.StatusCreated {
			t.Fatalf("submit %s: status %d", req.ID, code)
		}
	}
	waitFor(t, "both jobs acknowledged", func() bool { return acknowledged(n1.n) })

	counts.closed.Store(true)
	n3.n.Kill()
	restarted := startNode(t, "n3", seeds, hb, opts)
	defer func() {
		for _, tn := range []*testNode{n1, n2, restarted} {
			tn.n.Kill()
		}
	}()
	waitFor(t, "the owner to reach the restarted node", func() bool {
		return n1.n.members.addr("n3") == restarted.n.cfg.Advertise
	})
	n1.n.ackMu.Lock()
	before := n1.n.acks[id].acked
	n1.n.ackMu.Unlock()
	unpark.Do(func() { close(release) })
	waitFor(t, "the restarted node to acknowledge the job's new records", func() bool {
		n1.n.ackMu.Lock()
		defer n1.n.ackMu.Unlock()
		a := n1.n.acks[id]
		return a.dest == "n3" && a.acked > before
	})
	counts.closed.Store(false)

	waitFor(t, "the job whole on the restarted node", func() bool {
		jr, _ := replica(restarted.n, "n1", id)
		return jr.sub != nil && jr.state != nil
	})
	n1.n.Kill()
	waitState(t, restarted, id, autopipe.JobRunning)
	if restarted.n.adopted.Load() == 0 {
		t.Fatal("the restarted node did not adopt the job")
	}
}
