package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"autopipe"
	"autopipe/internal/server"
)

// testNode bundles a fleet node with the HTTP server carrying it.
type testNode struct {
	n   *Node
	srv *httptest.Server
}

// startNode brings up one in-process daemon: an httptest server whose
// address is known before the node is built, so Advertise is correct
// from the first heartbeat.
func startNode(t *testing.T, id string, seeds []string, hb time.Duration, sopts server.Options) *testNode {
	t.Helper()
	return startWrappedNode(t, id, seeds, hb, sopts, nil, nil)
}

// startWrappedNode is startNode with the node's outbound peer transport
// and its HTTP handler wrapped by the given functions (nil leaves one
// as it is).
func startWrappedNode(t *testing.T, id string, seeds []string, hb time.Duration, sopts server.Options,
	out func(http.RoundTripper) http.RoundTripper, in func(http.Handler) http.Handler) *testNode {
	t.Helper()
	srv := httptest.NewUnstartedServer(nil)
	cfg := Config{
		ID:             id,
		Advertise:      "http://" + srv.Listener.Addr().String(),
		Peers:          seeds,
		HeartbeatEvery: hb,
		Logf:           t.Logf,
	}
	if out != nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Second, Transport: out(http.DefaultTransport)}
	}
	n, err := New(cfg, sopts)
	if err != nil {
		t.Fatal(err)
	}
	srv.Config.Handler = n.Handler()
	if in != nil {
		srv.Config.Handler = in(n.Handler())
	}
	srv.Start()
	n.Start()
	t.Cleanup(srv.Close)
	return &testNode{n: n, srv: srv}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func smallSpec() server.JobSpec {
	return server.JobSpec{Model: "uniform", Uniform: &server.UniformSpec{Layers: 8}, Batches: 10}
}

func hugeSpec() server.JobSpec {
	return server.JobSpec{Model: "uniform", Uniform: &server.UniformSpec{Layers: 8}, Batches: 50_000_000}
}

// doJSON performs one HTTP call and decodes the JSON response.
func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("bad JSON from %s %s (%d): %v\n%s", method, url, resp.StatusCode, err, data)
		}
	}
	return resp.StatusCode
}

// startTrio brings up a 3-node fleet (n1 seeds, n2 and n3 join via n1)
// and waits for full membership convergence.
func startTrio(t *testing.T, hb time.Duration, mkOpts func(i int) server.Options) [3]*testNode {
	t.Helper()
	var nodes [3]*testNode
	nodes[0] = startNode(t, "n1", nil, hb, mkOpts(0))
	seed := []string{nodes[0].n.cfg.Advertise}
	nodes[1] = startNode(t, "n2", seed, hb, mkOpts(1))
	nodes[2] = startNode(t, "n3", seed, hb, mkOpts(2))
	waitFor(t, "membership convergence", func() bool {
		for _, tn := range nodes {
			if tn.n.ring.Len() != 3 {
				return false
			}
		}
		return true
	})
	return nodes
}

func poolOpts(size int) func(int) server.Options {
	return func(int) server.Options { return server.Options{PoolSize: size, CheckpointEvery: 2} }
}

// TestFleetMembershipAndClusterView: seeds plus gossip converge on the
// full ring everywhere, and /v1/cluster reports peers alive.
func TestFleetMembershipAndClusterView(t *testing.T) {
	nodes := startTrio(t, 10*time.Millisecond, poolOpts(2))
	waitFor(t, "all peers alive with RTTs", func() bool {
		for _, tn := range nodes {
			peers := tn.n.members.snapshot()
			if len(peers) != 2 {
				return false
			}
			for _, p := range peers {
				if p.State != "alive" || p.RTTSec <= 0 {
					return false
				}
			}
		}
		return true
	})
	var view ClusterView
	if code := doJSON(t, http.MethodGet, nodes[1].srv.URL+"/v1/cluster", nil, &view); code != http.StatusOK {
		t.Fatalf("cluster view status %d", code)
	}
	if view.Self.ID != "n2" || len(view.Ring) != 3 || len(view.Peers) != 2 {
		t.Fatalf("cluster view = %+v", view)
	}
	for _, tn := range nodes {
		if err := tn.n.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFleetForwardingAndAggregation: every submission goes through one
// gateway node, lands on its ring owner, and is visible — with its
// owning node — from every other node, both in the aggregated list and
// via forwarded per-job GET/DELETE.
func TestFleetForwardingAndAggregation(t *testing.T) {
	nodes := startTrio(t, 10*time.Millisecond, poolOpts(4))
	gateway := nodes[0].srv.URL

	byNode := map[string]int{}
	var ids []string
	for i := 0; i < 12; i++ {
		var info server.JobInfo
		if code := doJSON(t, http.MethodPost, gateway+"/v1/jobs", smallSpec(), &info); code != http.StatusCreated {
			t.Fatalf("submit %d: status %d", i, code)
		}
		if !strings.HasPrefix(info.ID, "job-n1-") {
			t.Fatalf("gateway-assigned id = %q", info.ID)
		}
		if info.Node == "" {
			t.Fatalf("submit ack without owning node: %+v", info)
		}
		byNode[info.Node]++
		ids = append(ids, info.ID)
	}
	if len(byNode) < 2 {
		t.Fatalf("12 jobs all landed on one node: %v", byNode)
	}
	if nodes[0].n.forwarded.Load() == 0 {
		t.Fatal("gateway forwarded nothing despite remote owners")
	}

	// Aggregated listing from a node that owns at most a third of them.
	waitFor(t, "cluster-wide listing of all 12 jobs done", func() bool {
		var list struct{ Jobs []server.JobInfo }
		if doJSON(t, http.MethodGet, nodes[2].srv.URL+"/v1/jobs", nil, &list) != http.StatusOK {
			return false
		}
		done := 0
		for _, j := range list.Jobs {
			if j.Status.State == autopipe.JobDone && j.Node != "" {
				done++
			}
		}
		return done == len(ids)
	})

	// Per-job GET through a non-owner proxies to the owner.
	for _, id := range ids {
		var info server.JobInfo
		if code := doJSON(t, http.MethodGet, nodes[1].srv.URL+"/v1/jobs/"+id, nil, &info); code != http.StatusOK {
			t.Fatalf("forwarded GET %s: status %d", id, code)
		}
		if info.ID != id || info.Status.State != autopipe.JobDone {
			t.Fatalf("forwarded GET %s = %+v", id, info)
		}
	}

	// Forwarded DELETE: cancel a long job via a non-owner.
	var huge server.JobInfo
	if code := doJSON(t, http.MethodPost, gateway+"/v1/jobs", hugeSpec(), &huge); code != http.StatusCreated {
		t.Fatalf("huge submit status %d", code)
	}
	var cancelled server.JobInfo
	waitFor(t, "forwarded cancel to take", func() bool {
		if doJSON(t, http.MethodDelete, nodes[2].srv.URL+"/v1/jobs/"+huge.ID, nil, &cancelled) != http.StatusOK {
			return false
		}
		return true
	})
	waitFor(t, "cancelled job to settle", func() bool {
		var info server.JobInfo
		doJSON(t, http.MethodGet, gateway+"/v1/jobs/"+huge.ID, nil, &info)
		return info.Status.State == autopipe.JobCancelled
	})

	// Unknown ids still 404 wherever they are asked for.
	if code := doJSON(t, http.MethodGet, nodes[1].srv.URL+"/v1/jobs/job-n1-999999", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown id status %d, want 404", code)
	}
	for _, tn := range nodes {
		tn.n.Kill() // fast teardown; graceful drain is covered elsewhere
	}
}

// TestFleetGracefulDrainHandoff: a draining node hands its queued jobs
// to the new ring owner instead of refusing them, and its completed
// results stay queryable cluster-wide after it leaves.
func TestFleetGracefulDrainHandoff(t *testing.T) {
	hb := 10 * time.Millisecond
	a := startNode(t, "na", nil, hb, server.Options{PoolSize: 1, CheckpointEvery: 2})
	b := startNode(t, "nb", []string{a.n.cfg.Advertise}, hb, server.Options{PoolSize: 2, CheckpointEvery: 2})
	waitFor(t, "2-node membership", func() bool {
		return a.n.ring.Len() == 2 && b.n.ring.Len() == 2
	})

	// Occupy na's single pool slot, then queue jobs behind it — all
	// placed directly on na via its own registry so the drain has
	// something local to hand off.
	running, err := a.n.reg.SubmitWithID("job-na-runner", hugeSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "runner running", func() bool {
		info, err := a.n.reg.Get(running.ID)
		return err == nil && info.Status.State == autopipe.JobRunning
	})
	var queued []string
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("job-na-q%d", i)
		if _, err := a.n.reg.SubmitWithID(id, smallSpec()); err != nil {
			t.Fatal(err)
		}
		queued = append(queued, id)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	a.n.Shutdown(ctx) // deadline cancels the huge runner; queued jobs must escape first

	if got := a.n.handoffSent.Load(); got != int64(len(queued)) {
		t.Fatalf("handed off %d jobs, want %d", got, len(queued))
	}
	for _, id := range queued {
		waitFor(t, "handed-off job "+id+" done on nb", func() bool {
			info, err := b.n.reg.Get(id)
			return err == nil && info.Status.State == autopipe.JobDone && info.Node == "nb"
		})
	}
	// na's leave let nb adopt its completed (cancelled runner) state, so
	// the whole history is still visible from the survivor.
	waitFor(t, "runner's final state adopted by nb", func() bool {
		info, err := b.n.reg.Get(running.ID)
		return err == nil && info.Status.State == autopipe.JobCancelled
	})
	if err := b.n.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSingleNodeDegradation: with no peers the fleet surface behaves
// exactly like a single daemon — local submit, local list, single-node
// drain — and /healthz still reaches the base server.
func TestSingleNodeDegradation(t *testing.T) {
	solo := startNode(t, "solo", nil, 50*time.Millisecond, server.Options{PoolSize: 2})
	var info server.JobInfo
	if code := doJSON(t, http.MethodPost, solo.srv.URL+"/v1/jobs", smallSpec(), &info); code != http.StatusCreated {
		t.Fatalf("solo submit status %d", code)
	}
	if info.Node != "solo" || !strings.HasPrefix(info.ID, "job-solo-") {
		t.Fatalf("solo submit = %+v", info)
	}
	resp, err := http.Get(solo.srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %v, %v", resp, err)
	}
	resp.Body.Close()
	waitFor(t, "solo job done", func() bool {
		j, err := solo.n.reg.Get(info.ID)
		return err == nil && j.Status.State == autopipe.JobDone
	})
	if err := solo.n.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestFleetMetricsSurface: /metrics carries both the registry families
// and the fleet families.
func TestFleetMetricsSurface(t *testing.T) {
	nodes := startTrio(t, 10*time.Millisecond, poolOpts(2))
	var info server.JobInfo
	if code := doJSON(t, http.MethodPost, nodes[0].srv.URL+"/v1/jobs", smallSpec(), &info); code != http.StatusCreated {
		t.Fatalf("submit status %d", code)
	}
	waitFor(t, "heartbeats to flow", func() bool { return nodes[0].n.heartbeatsOK.Load() > 2 })
	resp, err := http.Get(nodes[0].srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"autopiped_jobs", // registry families still present
		"autopiped_fleet_peers_alive 2",
		"autopiped_fleet_ring_members 3",
		"autopiped_fleet_jobs_adopted_total",
		"autopiped_fleet_forwarded_requests_total",
		"autopiped_fleet_heartbeat_rtt_seconds{peer=\"n2\"}",
		"autopiped_fleet_heartbeat_rtt_seconds{peer=\"n3\"}",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	for _, tn := range nodes {
		tn.n.Kill()
	}
}

// TestProxiedGetMatchesOwner: a GET for a finished job answered through
// a node that does not host it is byte-equal to the owner's own answer,
// which is json.Marshal of the owner's JobInfo plus a newline.
func TestProxiedGetMatchesOwner(t *testing.T) {
	nodes := startTrio(t, 10*time.Millisecond, poolOpts(2))
	byID := map[string]*testNode{}
	for _, tn := range nodes {
		byID[tn.n.cfg.ID] = tn
	}
	body := func(url string) []byte {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, %v", url, resp.StatusCode, err)
		}
		return b
	}
	proxied := 0
	for i := 0; i < 6; i++ {
		var info server.JobInfo
		if code := doJSON(t, http.MethodPost, nodes[0].srv.URL+"/v1/jobs", smallSpec(), &info); code != http.StatusCreated {
			t.Fatalf("submit %d: status %d", i, code)
		}
		owner := byID[info.Node]
		waitFor(t, "the job to finish", func() bool {
			got, err := owner.n.reg.Get(info.ID)
			return err == nil && got.Status.State == autopipe.JobDone
		})
		local := body(owner.srv.URL + "/v1/jobs/" + info.ID)
		got, _ := owner.n.reg.Get(info.ID)
		want, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(local, append(want, '\n')) {
			t.Fatalf("owner GET %s\n%s\nwant json.Marshal(Get) and a newline:\n%s", info.ID, local, want)
		}
		for _, tn := range nodes {
			if tn == owner {
				continue
			}
			if via := body(tn.srv.URL + "/v1/jobs/" + info.ID); !bytes.Equal(via, local) {
				t.Fatalf("GET %s via %s\n%s\nowner answered\n%s", info.ID, tn.n.cfg.ID, via, local)
			}
			proxied++
		}
	}
	if proxied == 0 {
		t.Fatal("no GET was proxied")
	}
	for _, tn := range nodes {
		tn.n.Kill()
	}
}

// TestListingKeepsFinishedViewsEncoded: the aggregated and the per-node
// job listings send each finished job's view as the registry holds it,
// decoding no more of it than the id and creation time the aggregated
// listing sorts by. Measured as the allocations each further finished
// job adds to one listing: decoding a whole JobInfo costs a hundred or
// more. The aggregated listing still holds every job, in order.
func TestListingKeepsFinishedViewsEncoded(t *testing.T) {
	solo := startNode(t, "solo", nil, time.Hour, server.Options{PoolSize: 2})
	defer solo.n.Kill()
	var ids []string
	finish := func(n int) {
		for i := 0; i < n; i++ {
			info, err := solo.n.reg.Submit(smallSpec())
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, info.ID)
		}
		for _, id := range ids {
			waitFor(t, "the jobs to finish", func() bool {
				info, err := solo.n.reg.Get(id)
				return err == nil && info.Status.State == autopipe.JobDone
			})
		}
	}
	listings := []struct {
		name   string
		handle http.HandlerFunc
	}{{"aggregated", solo.n.handleList}, {"local", solo.n.handleLocalJobs}}
	allocs := func() []float64 {
		out := make([]float64, len(listings))
		for i, l := range listings {
			req := httptest.NewRequest(http.MethodGet, "/v1/jobs", nil)
			out[i] = testing.AllocsPerRun(20, func() {
				l.handle(httptest.NewRecorder(), req)
			})
		}
		return out
	}
	const step = 30
	finish(step)
	before := allocs()
	finish(step)
	after := allocs()
	for i, l := range listings {
		perJob := (after[i] - before[i]) / step
		t.Logf("%s listing: %.1f allocations per finished job", l.name, perJob)
		if perJob > 20 {
			t.Errorf("%s listing: %.1f allocations per finished job (%.0f at %d jobs, %.0f at %d)",
				l.name, perJob, before[i], step, after[i], 2*step)
		}
	}

	var listed struct{ Jobs []server.JobInfo }
	if code := doJSON(t, http.MethodGet, solo.srv.URL+"/v1/jobs", nil, &listed); code != http.StatusOK {
		t.Fatalf("GET /v1/jobs = %d", code)
	}
	if len(listed.Jobs) != len(ids) {
		t.Fatalf("listed %d jobs, want %d", len(listed.Jobs), len(ids))
	}
	for i, got := range listed.Jobs {
		want, _ := solo.n.reg.Get(ids[i])
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if !bytes.Equal(g, w) {
			t.Fatalf("listing entry %d\n%s\nGet(%s)\n%s", i, g, ids[i], w)
		}
	}
}
