package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autopipe"
	"autopipe/internal/netfault"
	"autopipe/internal/server"
)

// startFaultNode is startNode with a shared netfault injector wired into
// the node's peer client and a short client timeout so drop-mode faults
// resolve within test patience.
func startFaultNode(t *testing.T, id string, seeds []string, hb time.Duration, sopts server.Options, inj *netfault.Injector) *testNode {
	t.Helper()
	srv := httptest.NewUnstartedServer(nil)
	cfg := Config{
		ID:             id,
		Advertise:      "http://" + srv.Listener.Addr().String(),
		Peers:          seeds,
		HeartbeatEvery: hb,
		Client:         &http.Client{Timeout: 500 * time.Millisecond},
		Fault:          inj,
		Logf:           t.Logf,
	}
	n, err := New(cfg, sopts)
	if err != nil {
		t.Fatal(err)
	}
	inj.Bind(id, srv.Listener.Addr().String())
	srv.Config.Handler = n.Handler()
	srv.Start()
	n.Start()
	t.Cleanup(srv.Close)
	return &testNode{n: n, srv: srv}
}

// partitionSpec is a job that severs its hosting daemon's peer links at
// its first weight-migration flow — the partition lands exactly
// mid-switch, deterministically. Unlike crashSpec the job keeps running
// on its (now minority) host.
func partitionSpec() server.JobSpec {
	return server.JobSpec{
		Model: "AlexNet", BandwidthGbps: 25, Workers: 4,
		CheckEvery: 3, Batches: 60,
		Chaos: []server.ChaosEventSpec{{Kind: "partition", Match: "migrate"}},
	}
}

// TestFleetPartitionMidSwitchFailover is the partition acceptance gate:
// a 3-node fleet, the owner of a mid-switch job is symmetrically
// partitioned away. The owner must enter minority mode (503 +
// Retry-After, job paused at a step boundary); the majority must declare
// it dead and adopt the job at a higher fence; the adopted run's
// decision stream must be bit-identical to a control replay of the same
// records. On heal the ex-owner must fence out its stale copy and relay
// queries to the adopter — exactly one node finishes the job.
func TestFleetPartitionMidSwitchFailover(t *testing.T) {
	hb := 25 * time.Millisecond
	inj := netfault.New(42)
	var nodes [3]*testNode
	var nodesMu sync.Mutex // guards nodes during setup vs partition hooks

	allowPartition := make(chan struct{})
	var partitionedID atomic.Value // string: the node that got isolated
	mkOpts := func(i int) server.Options {
		return server.Options{
			PoolSize: 2, CheckpointEvery: 2,
			ConfigureJob: offOptimum,
			PartitionHook: func() {
				// Runs on the chaos job's simulation goroutine on the
				// owner, precisely at the first migration flow. Hold the
				// partition until the checkpoint is replicated so the
				// majority's adoption is deterministic.
				<-allowPartition
				nodesMu.Lock()
				self := nodes[i].n
				var others []string
				for _, tn := range nodes {
					if tn.n != self {
						others = append(others, tn.n.ID())
					}
				}
				nodesMu.Unlock()
				inj.AddRules(netfault.PartitionRules([]string{self.ID()}, others, netfault.BlockReject)...)
				partitionedID.Store(self.ID())
				// Freeze the simulation until the minority pause is in
				// force: the owner's copy stops at this exact flow instead
				// of racing the failure detector, keeping the replay
				// comparison meaningful.
				deadline := time.Now().Add(30 * time.Second)
				for !self.reg.Minority() && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
			},
		}
	}

	nodesMu.Lock()
	nodes[0] = startFaultNode(t, "n1", nil, hb, mkOpts(0), inj)
	seed := []string{nodes[0].n.cfg.Advertise}
	nodes[1] = startFaultNode(t, "n2", seed, hb, mkOpts(1), inj)
	nodes[2] = startFaultNode(t, "n3", seed, hb, mkOpts(2), inj)
	nodesMu.Unlock()
	waitFor(t, "membership convergence", func() bool {
		for _, tn := range nodes {
			if tn.n.ring.Len() != 3 {
				return false
			}
		}
		return true
	})
	gateway := nodes[0].srv.URL

	var ids []string
	for i := 0; i < 3; i++ {
		var info server.JobInfo
		if code := doJSON(t, http.MethodPost, gateway+"/v1/jobs", smallSpec(), &info); code != http.StatusCreated {
			t.Fatalf("submit %d: status %d", i, code)
		}
		ids = append(ids, info.ID)
	}
	var part server.JobInfo
	if code := doJSON(t, http.MethodPost, gateway+"/v1/jobs", partitionSpec(), &part); code != http.StatusCreated {
		t.Fatalf("partition-job submit: status %d", code)
	}
	ids = append(ids, part.ID)
	var ownerNode *testNode
	for _, tn := range nodes {
		if tn.n.ID() == part.Node {
			ownerNode = tn
		}
	}
	if ownerNode == nil {
		t.Fatalf("partition job owner %q not in fleet", part.Node)
	}

	waitFor(t, "partition-job checkpoint on a survivor", func() bool {
		return checkpointReplicated(nodes[:], ownerNode.n, part.ID)
	})
	close(allowPartition)
	waitFor(t, "the partition to land", func() bool { return partitionedID.Load() != nil })
	if got := partitionedID.Load().(string); got != part.Node {
		t.Fatalf("partitioned %s, expected the job's owner %s", got, part.Node)
	}

	// Minority mode on the isolated owner: shed with 503 and a derived
	// Retry-After in [1,30] seconds.
	waitFor(t, "the owner to enter minority mode", func() bool { return ownerNode.n.reg.Minority() })
	body, _ := json.Marshal(smallSpec())
	req, _ := http.NewRequest(http.MethodPost, ownerNode.srv.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("minority submit: status %d, want 503", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 30 {
		t.Fatalf("minority submit Retry-After = %q, want an integer in [1,30]", resp.Header.Get("Retry-After"))
	}

	var survivors []*testNode
	for _, tn := range nodes {
		if tn != ownerNode {
			survivors = append(survivors, tn)
		}
	}
	waitFor(t, "survivors to drop the owner from their rings", func() bool {
		for _, s := range survivors {
			if s.n.ring.Len() != 2 || s.n.ring.Has(part.Node) {
				return false
			}
		}
		return true
	})
	waitFor(t, "all jobs done on the survivors", func() bool {
		var list struct{ Jobs []server.JobInfo }
		if doJSON(t, http.MethodGet, survivors[0].srv.URL+"/v1/jobs", nil, &list) != http.StatusOK {
			return false
		}
		done := map[string]bool{}
		for _, j := range list.Jobs {
			if j.Status.State == autopipe.JobDone {
				done[j.ID] = true
			}
		}
		for _, id := range ids {
			if !done[id] {
				return false
			}
		}
		return true
	})

	// The adopter holds the partition job at a bumped fence.
	var adopter *testNode
	for _, s := range survivors {
		if recs := s.n.AdoptionRecords(part.ID); recs != nil {
			adopter = s
		}
	}
	if adopter == nil {
		t.Fatal("no survivor adopted the partition job")
	}
	adopted, err := adopter.n.reg.Get(part.ID)
	if err != nil || adopted.Status.State != autopipe.JobDone || adopted.Result == nil {
		t.Fatalf("adopted copy on %s: %+v, %v", adopter.n.ID(), adopted, err)
	}
	if adopted.Fence < 2 {
		t.Fatalf("adopted fence = %d, want >= 2", adopted.Fence)
	}

	// Determinism: the adopted run equals a control registry recovering
	// from the very same replicated records.
	control := server.NewRegistryWithOptions(server.Options{
		PoolSize: 2, CheckpointEvery: 2, ConfigureJob: offOptimum, NodeID: "control",
	})
	defer control.Shutdown(context.Background())
	if _, err := control.Adopt(adopter.n.AdoptionRecords(part.ID)); err != nil {
		t.Fatalf("control replay: %v", err)
	}
	var controlInfo server.JobInfo
	waitFor(t, "control replay to finish", func() bool {
		var err error
		controlInfo, err = control.Get(part.ID)
		return err == nil && controlInfo.Status.State == autopipe.JobDone
	})
	da, _ := json.Marshal(adopted.Result.Decisions)
	db, _ := json.Marshal(controlInfo.Result.Decisions)
	if string(da) != string(db) {
		t.Fatalf("adopted decision stream diverges from control replay:\n%s\nvs\n%s", da, db)
	}
	if !adopted.Result.FinalPlan.Equal(controlInfo.Result.FinalPlan) {
		t.Fatalf("adopted final plan %s != control %s", adopted.Result.FinalPlan, controlInfo.Result.FinalPlan)
	}

	// Heal. The ex-owner must rejoin, fence out its stale paused copy,
	// and leave exactly one completed copy of the partition job in the
	// fleet — on the adopter.
	inj.Clear()
	waitFor(t, "the ex-owner to regain quorum", func() bool {
		return ownerNode.n.quorumOK.Load() && !ownerNode.n.reg.Minority()
	})
	waitFor(t, "the stale copy to be fenced out", func() bool {
		return ownerNode.n.reg.Counters().FencedOut >= 1
	})
	if _, err := ownerNode.n.reg.Get(part.ID); err == nil {
		t.Fatal("ex-owner still hosts the fenced-out job")
	}
	hosts := 0
	for _, tn := range nodes {
		if info, err := tn.n.reg.Get(part.ID); err == nil && info.Status.State == autopipe.JobDone {
			hosts++
		}
	}
	if hosts != 1 {
		t.Fatalf("partition job completed on %d nodes, want exactly 1", hosts)
	}

	// Queries through the healed ex-owner relay to the adopter.
	var relayed server.JobInfo
	waitFor(t, "the ex-owner to relay queries to the adopter", func() bool {
		return doJSON(t, http.MethodGet, ownerNode.srv.URL+"/v1/jobs/"+part.ID, nil, &relayed) == http.StatusOK
	})
	if relayed.Node != adopter.n.ID() || relayed.Status.State != autopipe.JobDone {
		t.Fatalf("relayed query answered by %q in state %s, want %q done", relayed.Node, relayed.Status.State, adopter.n.ID())
	}

	for _, tn := range nodes {
		if err := tn.n.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFleetAsymmetricPartitionNoFailover: a one-way drop (n1 can no
// longer reach n2, n2 still reaches n1) must cause NO failover. Inbound
// heartbeats refresh liveness on direct contact, so neither side ever
// declares the other dead, nobody loses quorum, and no fences move.
func TestFleetAsymmetricPartitionNoFailover(t *testing.T) {
	hb := 25 * time.Millisecond
	inj := netfault.New(7)
	mkOpts := func(int) server.Options { return server.Options{PoolSize: 2, CheckpointEvery: 2} }
	var nodes [3]*testNode
	nodes[0] = startFaultNode(t, "n1", nil, hb, mkOpts(0), inj)
	seed := []string{nodes[0].n.cfg.Advertise}
	nodes[1] = startFaultNode(t, "n2", seed, hb, mkOpts(1), inj)
	nodes[2] = startFaultNode(t, "n3", seed, hb, mkOpts(2), inj)
	waitFor(t, "membership convergence", func() bool {
		for _, tn := range nodes {
			if tn.n.ring.Len() != 3 {
				return false
			}
		}
		return true
	})

	var ids []string
	for i := 0; i < 4; i++ {
		var info server.JobInfo
		if code := doJSON(t, http.MethodPost, nodes[0].srv.URL+"/v1/jobs", smallSpec(), &info); code != http.StatusCreated {
			t.Fatalf("submit %d: status %d", i, code)
		}
		ids = append(ids, info.ID)
	}

	// One-way drop, held for twice the dead threshold (10 hb = 250ms).
	inj.SetRules(netfault.Rule{Src: "n1", Dst: "n2", Block: netfault.BlockDrop})
	time.Sleep(20 * hb)
	inj.Clear()

	waitFor(t, "all jobs to finish", func() bool {
		var list struct{ Jobs []server.JobInfo }
		if doJSON(t, http.MethodGet, nodes[2].srv.URL+"/v1/jobs", nil, &list) != http.StatusOK {
			return false
		}
		done := map[string]bool{}
		for _, j := range list.Jobs {
			if j.Status.State == autopipe.JobDone {
				done[j.ID] = true
			}
		}
		for _, id := range ids {
			if !done[id] {
				return false
			}
		}
		return true
	})
	for _, tn := range nodes {
		if got := tn.n.adopted.Load(); got != 0 {
			t.Fatalf("%s adopted %d jobs during a one-way partition, want 0", tn.n.ID(), got)
		}
		if got := tn.n.fenceRejections.Load(); got != 0 {
			t.Fatalf("%s rejected %d fenced records, want 0", tn.n.ID(), got)
		}
		if !tn.n.quorumOK.Load() || tn.n.reg.Minority() {
			t.Fatalf("%s lost quorum during a one-way partition", tn.n.ID())
		}
		if tn.n.ring.Len() != 3 {
			t.Fatalf("%s ring has %d members, want 3", tn.n.ID(), tn.n.ring.Len())
		}
	}
	for _, tn := range nodes {
		if err := tn.n.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFleetFlappingLinkNoPingPong: rapid partition/heal cycles around a
// mid-switch job's owner, each shorter than the suspect threshold. The
// flapping must not move ownership at all — no adoptions, no fence
// bumps, the job completes exactly once on its original host.
func TestFleetFlappingLinkNoPingPong(t *testing.T) {
	hb := 25 * time.Millisecond
	inj := netfault.New(9)
	var nodes [3]*testNode
	var nodesMu sync.Mutex

	var flappedID atomic.Value
	mkOpts := func(i int) server.Options {
		return server.Options{
			PoolSize: 2, CheckpointEvery: 2,
			ConfigureJob: offOptimum,
			PartitionHook: func() {
				// Flap the owner's links mid-switch: sub-suspect-threshold
				// partitions, repeated. The simulation is frozen here, so
				// the job is guaranteed in flight throughout the flapping.
				nodesMu.Lock()
				self := nodes[i].n
				var others []string
				for _, tn := range nodes {
					if tn.n != self {
						others = append(others, tn.n.ID())
					}
				}
				nodesMu.Unlock()
				for c := 0; c < 5; c++ {
					inj.SetRules(netfault.PartitionRules([]string{self.ID()}, others, netfault.BlockReject)...)
					time.Sleep(hb)
					inj.Clear()
					time.Sleep(2 * hb)
				}
				flappedID.Store(self.ID())
			},
		}
	}

	nodesMu.Lock()
	nodes[0] = startFaultNode(t, "n1", nil, hb, mkOpts(0), inj)
	seed := []string{nodes[0].n.cfg.Advertise}
	nodes[1] = startFaultNode(t, "n2", seed, hb, mkOpts(1), inj)
	nodes[2] = startFaultNode(t, "n3", seed, hb, mkOpts(2), inj)
	nodesMu.Unlock()
	waitFor(t, "membership convergence", func() bool {
		for _, tn := range nodes {
			if tn.n.ring.Len() != 3 {
				return false
			}
		}
		return true
	})

	var part server.JobInfo
	if code := doJSON(t, http.MethodPost, nodes[0].srv.URL+"/v1/jobs", partitionSpec(), &part); code != http.StatusCreated {
		t.Fatalf("submit: status %d", code)
	}
	waitFor(t, "the flapping to run its course", func() bool { return flappedID.Load() != nil })
	waitFor(t, "the job to finish on its original owner", func() bool {
		var info server.JobInfo
		if doJSON(t, http.MethodGet, nodes[0].srv.URL+"/v1/jobs/"+part.ID, nil, &info) != http.StatusOK {
			return false
		}
		return info.Status.State == autopipe.JobDone && info.Node == part.Node
	})

	for _, tn := range nodes {
		if got := tn.n.adopted.Load(); got != 0 {
			t.Fatalf("%s adopted %d jobs across link flaps, want 0", tn.n.ID(), got)
		}
		if got := tn.n.reg.Counters().FencedOut; got != 0 {
			t.Fatalf("%s fenced out %d jobs across link flaps, want 0", tn.n.ID(), got)
		}
	}
	if fence, ok := nodeHosting(nodes[:], part.ID); !ok || fence != 1 {
		t.Fatalf("job fence = %d (hosted=%v), want 1 on the original owner", fence, ok)
	}
	for _, tn := range nodes {
		if err := tn.n.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFleetLatencyTolerance: uniform injected peer latency slows the
// control plane but must not trip the failure detector or quorum.
func TestFleetLatencyTolerance(t *testing.T) {
	hb := 25 * time.Millisecond
	inj := netfault.New(11)
	mkOpts := func(int) server.Options { return server.Options{PoolSize: 2, CheckpointEvery: 2} }
	var nodes [3]*testNode
	nodes[0] = startFaultNode(t, "n1", nil, hb, mkOpts(0), inj)
	seed := []string{nodes[0].n.cfg.Advertise}
	nodes[1] = startFaultNode(t, "n2", seed, hb, mkOpts(1), inj)
	nodes[2] = startFaultNode(t, "n3", seed, hb, mkOpts(2), inj)
	waitFor(t, "membership convergence", func() bool {
		for _, tn := range nodes {
			if tn.n.ring.Len() != 3 {
				return false
			}
		}
		return true
	})
	// 5ms on every link, both ways — well under the suspect threshold.
	inj.SetRules(netfault.Rule{Latency: 5 * time.Millisecond})

	var info server.JobInfo
	if code := doJSON(t, http.MethodPost, nodes[0].srv.URL+"/v1/jobs", smallSpec(), &info); code != http.StatusCreated {
		t.Fatalf("submit: status %d", code)
	}
	waitFor(t, "the job to finish under latency", func() bool {
		var got server.JobInfo
		if doJSON(t, http.MethodGet, nodes[1].srv.URL+"/v1/jobs/"+info.ID, nil, &got) != http.StatusOK {
			return false
		}
		return got.Status.State == autopipe.JobDone
	})
	if inj.Stats().Delayed == 0 {
		t.Fatal("latency rule matched no requests")
	}
	for _, tn := range nodes {
		if !tn.n.quorumOK.Load() || tn.n.adopted.Load() != 0 {
			t.Fatalf("%s: quorum=%v adopted=%d under uniform latency", tn.n.ID(), tn.n.quorumOK.Load(), tn.n.adopted.Load())
		}
	}
	for _, tn := range nodes {
		if err := tn.n.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// nodeHosting finds the (single) node hosting jobID and returns its
// fence; ok is false when no node hosts it.
func nodeHosting(nodes []*testNode, jobID string) (uint64, bool) {
	for _, tn := range nodes {
		if f, ok := tn.n.reg.Fence(jobID); ok {
			return f, true
		}
	}
	return 0, false
}
