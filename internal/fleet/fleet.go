package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autopipe/internal/journal"
	"autopipe/internal/netfault"
	"autopipe/internal/server"
)

// Timing defaults. Suspicion is advisory (the peer stays in the ring);
// only the dead threshold has side effects, so it is deliberately an
// order of magnitude above the heartbeat period — adopting the jobs of
// a node that was merely slow would run them twice.
const (
	DefaultHeartbeatEvery = time.Second
	suspectFactor         = 3
	deadFactor            = 10
	// resyncTicks is how many heartbeat rounds pass between replica
	// resyncs. A resync full-syncs only the jobs whose successor has
	// not acknowledged their latest record — one dropped by
	// backpressure or a failed POST, or one whose successor changed
	// with the membership — so an idle fleet's resync sends nothing.
	resyncTicks = 3
	// forwardedHeader marks proxied requests so they are answered
	// locally — a placement disagreement must degrade to 404, never to
	// a forwarding loop.
	forwardedHeader = "X-Autopipe-Forwarded"
)

// Config parametrises one fleet node.
type Config struct {
	// ID uniquely names this daemon in the fleet (required).
	ID string
	// Advertise is the URL peers use to reach this node's HTTP surface,
	// e.g. "http://10.0.0.7:8081" (required for multi-node operation).
	Advertise string
	// Peers seeds membership with other nodes' advertise URLs; the full
	// member list is learned from join responses and heartbeat gossip.
	Peers []string
	// HeartbeatEvery is the failure-detector period (default 1s). A
	// peer silent for 3 periods is suspect; one silent for 10 is dead —
	// removed from the ring, its replicated jobs adopted.
	HeartbeatEvery time.Duration
	// Client performs peer HTTP calls (default: 5s timeout).
	Client *http.Client
	// Fault, when non-nil, interposes a deterministic network-fault
	// injector on every outbound peer call and exposes the /v1/netfault
	// control endpoint. Test and chaos tooling only: production fleets
	// leave it nil.
	Fault *netfault.Injector
	// Logf receives operational events (nil = silent).
	Logf func(format string, args ...any)
}

// Node federates a local job registry with its peers: a consistent-hash
// ring places jobs, any node proxies API requests to the owner, owners
// stream journal records to each job's ring successor, and successors
// adopt the jobs of a peer declared dead.
type Node struct {
	cfg     Config
	reg     *server.Registry
	base    *server.Server
	mux     *http.ServeMux
	ring    *Ring
	members *membership
	store   *replicaStore
	client  *http.Client

	mu        sync.Mutex
	seq       int
	closing   bool
	adoptions map[string][]journal.Record // job id -> records it was adopted from
	fencedTo  map[string]string           // job id -> node now owning it at a higher fence

	// quorumOK tracks the last quorum evaluation; flipping it drives the
	// registry in and out of minority mode.
	quorumOK atomic.Bool

	killed   atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup

	// ackMu guards acks, what each hosted job's successor has
	// acknowledged, and admitting, the records held back while a job's
	// admission sync runs (see replication.go). It is a leaf.
	ackMu     sync.Mutex
	acks      map[string]*replAck
	admitting map[string][]streamed

	replCh chan streamed

	// Counters for /metrics and /v1/cluster.
	forwarded       atomic.Int64
	adopted         atomic.Int64
	replSent        atomic.Int64
	replDropped     atomic.Int64
	replErrors      atomic.Int64
	handoffSent     atomic.Int64
	handoffRecv     atomic.Int64
	heartbeatsOK    atomic.Int64
	heartbeatsBad   atomic.Int64
	fenceRejections atomic.Int64
	minorityFlips   atomic.Int64
	adoptSuppressed atomic.Int64
	digestErrors    atomic.Int64
	// Replication POSTs by what sent them, jobs full-synced by
	// resyncs, and admission syncs that failed.
	replPosts         [numReplPaths]atomic.Int64
	resyncJobs        atomic.Int64
	admitSyncFailures atomic.Int64
}

// New builds a fleet node around a registry constructed from sopts.
// The node installs its own NodeID and OnRecord hooks (chaining any
// OnRecord already present) and returns without touching the network;
// call Start once the node's Advertise URL is actually being served.
func New(cfg Config, sopts server.Options) (*Node, error) {
	if cfg.ID == "" {
		return nil, errors.New("fleet: Config.ID is required")
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	n := &Node{
		cfg:       cfg,
		ring:      NewRing(DefaultVNodes),
		members:   newMembership(time.Now),
		store:     newReplicaStore(),
		client:    cfg.Client,
		adoptions: map[string][]journal.Record{},
		fencedTo:  map[string]string{},
		acks:      map[string]*replAck{},
		admitting: map[string][]streamed{},
		stop:      make(chan struct{}),
		replCh:    make(chan streamed, 1024),
	}
	n.quorumOK.Store(true)
	if n.client == nil {
		n.client = &http.Client{Timeout: 5 * time.Second}
	}
	if cfg.Fault != nil {
		// Interpose the fault injector on outbound peer traffic only:
		// inbound requests (including /v1/netfault control calls) are
		// never impaired, so a partitioned node stays steerable.
		faulted := *n.client
		faulted.Transport = cfg.Fault.Transport(cfg.ID, n.client.Transport)
		n.client = &faulted
	}
	sopts.NodeID = cfg.ID
	prevOnRecord := sopts.OnRecord
	sopts.OnRecord = func(rec journal.Record) {
		if prevOnRecord != nil {
			prevOnRecord(rec)
		}
		n.observeRecord(rec)
	}
	n.reg = server.NewRegistryWithOptions(sopts)
	n.base = server.New(n.reg)
	n.ring.Add(cfg.ID)
	n.buildMux()
	return n, nil
}

// Registry exposes the node's local job registry (journal recovery and
// tests go through it).
func (n *Node) Registry() *server.Registry { return n.reg }

// Ring exposes the node's current placement ring.
func (n *Node) Ring() *Ring { return n.ring }

// ID returns the node's fleet identity.
func (n *Node) ID() string { return n.cfg.ID }

// Handler returns the node's HTTP surface: the single-node API plus
// fleet forwarding and peer endpoints. After Kill it answers 503 to
// everything, which is how peers' failure detectors find out.
func (n *Node) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if n.killed.Load() {
			http.Error(w, "node killed", http.StatusServiceUnavailable)
			return
		}
		n.mux.ServeHTTP(w, req)
	})
}

// Start joins the seed peers and launches the heartbeat and
// replication loops. The node's Advertise URL must be serving
// n.Handler() before Start is called.
func (n *Node) Start() {
	for _, seed := range n.cfg.Peers {
		var resp joinResponse
		err := n.post(seed+"/v1/fleet/join", joinRequest{ID: n.cfg.ID, Addr: n.cfg.Advertise}, &resp)
		if err != nil {
			n.cfg.Logf("fleet %s: join via %s failed: %v", n.cfg.ID, seed, err)
			continue
		}
		if n.members.observe(resp.ID, seed, 0) {
			n.ring.Add(resp.ID)
		}
		for _, id := range n.members.merge(n.cfg.ID, resp.Members) {
			n.ring.Add(id)
		}
	}
	n.wg.Add(2)
	go n.heartbeatLoop()
	go n.replicatorLoop()
}

// Kill simulates abrupt death for chaos tests: HTTP goes dark, the
// loops stop, and the registry is killed without emitting any further
// durable state — the in-process equivalent of SIGKILL.
func (n *Node) Kill() {
	if !n.killed.CompareAndSwap(false, true) {
		return
	}
	n.stopOnce.Do(func() { close(n.stop) })
	n.reg.Kill()
}

// Shutdown drains the node gracefully. In fleet mode the queued jobs
// are first handed to their new ring owners instead of being refused,
// running jobs drain under ctx as on a single node, every job's final
// state is synced to its successor, and the node announces its leave so
// peers drop it from placement and adopt its completed results. With no
// live peers this degrades exactly to the single-node drain.
func (n *Node) Shutdown(ctx context.Context) error {
	n.mu.Lock()
	if n.closing {
		n.mu.Unlock()
		return nil
	}
	n.closing = true
	n.mu.Unlock()

	targets := n.members.targets()
	if len(targets) > 0 {
		n.ring.Remove(n.cfg.ID)
		for _, q := range n.reg.DetachQueued() {
			dest := n.ring.Owner(q.ID)
			if n.handoff(dest, q) {
				n.handoffSent.Add(1)
				continue
			}
			// No reachable peer for it: put it back in the local queue so
			// the acknowledged submission is not lost. It does not run:
			// the registry's Shutdown below closes the queue first, so the
			// worker that pops it refuses it, and it finishes cancelled
			// with ErrClosed. ROADMAP's "hand a queued resume off with its
			// checkpoint" item replaces this fallback.
			if _, err := n.reg.SubmitWithID(q.ID, q.Spec); err != nil {
				n.cfg.Logf("fleet %s: drain could not re-queue %s: %v", n.cfg.ID, q.ID, err)
			}
		}
	}
	err := n.reg.Shutdown(ctx)
	// Stop the heartbeat and replicator loops BEFORE the final sync: an
	// in-flight periodic resync exported while jobs were still running
	// would otherwise race the final one and clobber successors' replicas
	// with stale pre-drain state.
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
	if len(targets) > 0 {
		n.resync(true)
		for _, t := range targets {
			if perr := n.post(t.Addr+"/v1/fleet/leave", leaveRequest{ID: n.cfg.ID}, nil); perr != nil {
				n.cfg.Logf("fleet %s: leave notice to %s failed: %v", n.cfg.ID, t.ID, perr)
			}
		}
	}
	return err
}

// AdoptionRecords returns the replicated record stream a job was
// adopted from (nil if the job was not adopted here). The acceptance
// tests replay it on a control registry to prove adopted jobs resume
// deterministically.
func (n *Node) AdoptionRecords(jobID string) []journal.Record {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.adoptions[jobID]
}

// --- wire types ---

type joinRequest struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

type joinResponse struct {
	ID      string       `json:"id"`
	Members []memberInfo `json:"members"`
}

type heartbeatRequest struct {
	ID      string       `json:"id"`
	Addr    string       `json:"addr"`
	Members []memberInfo `json:"members"`
}

type heartbeatResponse struct {
	ID      string       `json:"id"`
	Members []memberInfo `json:"members"`
}

type replicateRequest struct {
	From    string           `json:"from"`
	Full    bool             `json:"full"`
	Records []journal.Record `json:"records"`
}

type fleetSubmitRequest struct {
	ID   string         `json:"id"`
	Spec server.JobSpec `json:"spec"`
}

type leaveRequest struct {
	ID string `json:"id"`
}

// digestRequest/digestResponse carry the heal-time anti-entropy
// exchange: each side lists every hosted job's fence epoch, and each
// side fences out its own copies that a higher remote epoch supersedes.
type digestRequest struct {
	From string            `json:"from"`
	Jobs []server.JobFence `json:"jobs"`
}

type digestResponse struct {
	ID   string            `json:"id"`
	Jobs []server.JobFence `json:"jobs"`
}

// netfaultRequest is the /v1/netfault control body. Clear runs first,
// then Set (atomic replace), then Add.
type netfaultRequest struct {
	Clear bool            `json:"clear,omitempty"`
	Set   []netfault.Rule `json:"set,omitempty"`
	Add   []netfault.Rule `json:"add,omitempty"`
}

// localJobsResponse carries a node's job views as the node encoded
// them (Registry.ListViews).
type localJobsResponse struct {
	Node string            `json:"node"`
	Jobs []json.RawMessage `json:"jobs"`
}

// listKey is what the aggregated listing orders job views by; decoding
// only these fields leaves the rest of each view unparsed.
type listKey struct {
	ID      string    `json:"id"`
	Created time.Time `json:"created_at"`
}

// ClusterView is the GET /v1/cluster response.
type ClusterView struct {
	Self           memberInfo     `json:"self"`
	Ring           []string       `json:"ring"`
	Peers          []PeerStatus   `json:"peers"`
	ReplicatedJobs map[string]int `json:"replicated_jobs,omitempty"`
	JobsAdopted    int64          `json:"jobs_adopted_total"`
	Forwarded      int64          `json:"forwarded_requests_total"`
	// Quorum reports whether this node currently reaches a strict
	// majority of the membership; Minority mirrors the registry's
	// shedding mode (they differ only transiently).
	Quorum          bool  `json:"quorum"`
	Minority        bool  `json:"minority"`
	FenceRejections int64 `json:"fence_rejections_total"`
	// JobsFencedOut counts local job copies this node abandoned to a
	// higher fence epoch — the heal-time anti-entropy outcome.
	JobsFencedOut int64 `json:"jobs_fenced_out_total"`
}

// --- HTTP surface ---

func (n *Node) buildMux() {
	n.mux = http.NewServeMux()
	n.mux.HandleFunc("POST /v1/jobs", n.handleSubmit)
	n.mux.HandleFunc("GET /v1/jobs", n.handleList)
	n.mux.HandleFunc("GET /v1/jobs/{id}", n.handleGet)
	n.mux.HandleFunc("DELETE /v1/jobs/{id}", n.handleCancel)
	n.mux.HandleFunc("GET /v1/cluster", n.handleCluster)
	n.mux.HandleFunc("GET /metrics", n.handleMetrics)
	n.mux.HandleFunc("POST /v1/fleet/join", n.handleJoin)
	n.mux.HandleFunc("POST /v1/fleet/heartbeat", n.handleHeartbeat)
	n.mux.HandleFunc("POST /v1/fleet/replicate", n.handleReplicate)
	n.mux.HandleFunc("POST /v1/fleet/submit", n.handleFleetSubmit)
	n.mux.HandleFunc("POST /v1/fleet/leave", n.handleLeave)
	n.mux.HandleFunc("GET /v1/fleet/jobs", n.handleLocalJobs)
	n.mux.HandleFunc("POST /v1/fleet/digest", n.handleDigest)
	if n.cfg.Fault != nil {
		n.mux.HandleFunc("POST /v1/netfault", n.handleNetfault)
		n.mux.HandleFunc("GET /v1/netfault", n.handleNetfaultGet)
	}
	n.mux.Handle("/", n.base.Handler())
}

func (n *Node) self() memberInfo {
	return memberInfo{ID: n.cfg.ID, Addr: n.cfg.Advertise}
}

// handleSubmit is the gateway path: any node accepts a submission,
// assigns a globally unique ID, and either hosts the job (it is the
// ring owner) or proxies it to the owner.
func (n *Node) handleSubmit(w http.ResponseWriter, req *http.Request) {
	if n.reg.Minority() {
		// A minority node must not act as a gateway either: even if the
		// ring owner happens to be reachable (asymmetric partition), an
		// acknowledgement from this side of the split is not trustworthy.
		server.WriteSubmitError(w, n.reg, server.ErrMinority)
		return
	}
	var spec server.JobSpec
	if err := server.DecodeSubmit(w, req, &spec); err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad job spec: %w", err))
		return
	}
	n.mu.Lock()
	n.seq++
	id := fmt.Sprintf("job-%s-%06d", n.cfg.ID, n.seq)
	n.mu.Unlock()
	owner := n.ring.Owner(id)
	if owner == n.cfg.ID || owner == "" {
		n.submitLocal(w, id, spec)
		return
	}
	addr := n.members.addr(owner)
	if addr == "" {
		server.WriteError(w, http.StatusBadGateway, fmt.Errorf("fleet: owner %s for %s has no address", owner, id))
		return
	}
	n.forwarded.Add(1)
	n.relay(w, http.MethodPost, addr+"/v1/fleet/submit", fleetSubmitRequest{ID: id, Spec: spec})
}

// handleFleetSubmit hosts a job forwarded by a gateway peer (or handed
// off by a draining one).
func (n *Node) handleFleetSubmit(w http.ResponseWriter, req *http.Request) {
	var fr fleetSubmitRequest
	if err := server.DecodeSubmit(w, req, &fr); err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad forwarded submit: %w", err))
		return
	}
	if fr.ID == "" {
		server.WriteError(w, http.StatusBadRequest, errors.New("forwarded submit needs an id"))
		return
	}
	n.handoffRecv.Add(1)
	n.submitLocal(w, fr.ID, fr.Spec)
}

// submitLocal hosts a job here and synchronously syncs its durable
// state to the ring successor, so an acknowledged submission survives
// this node dying immediately afterwards (as long as the successor
// lives — the fleet keeps one replica, not a quorum). The job's
// records are held back until that sync is done: those its export
// carries are not sent again, the rest stream after it. If the sync
// fails the 201 still goes out, durable on this node only, and the job
// stays unacknowledged until a resync delivers it.
func (n *Node) submitLocal(w http.ResponseWriter, id string, spec server.JobSpec) {
	n.ackMu.Lock()
	n.admitting[id] = nil
	n.ackMu.Unlock()
	info, err := n.reg.SubmitWithID(id, spec)
	if err != nil {
		n.ackMu.Lock()
		delete(n.admitting, id)
		n.ackMu.Unlock()
		server.WriteSubmitError(w, n.reg, err)
		return
	}
	n.syncAdmitted(id)
	server.WriteJSON(w, http.StatusCreated, info)
}

// handleList aggregates the cluster-wide job table; a forwarded request
// answers with local jobs only.
func (n *Node) handleList(w http.ResponseWriter, req *http.Request) {
	jobs, err := n.reg.ListViews()
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	if req.Header.Get(forwardedHeader) == "" {
		for _, t := range n.members.targets() {
			var resp localJobsResponse
			if err := n.get(t.Addr+"/v1/fleet/jobs", &resp); err != nil {
				n.cfg.Logf("fleet %s: listing via %s failed: %v", n.cfg.ID, t.ID, err)
				continue
			}
			jobs = append(jobs, resp.Jobs...)
		}
		keyed := make([]struct {
			listKey
			view json.RawMessage
		}, len(jobs))
		for i, view := range jobs {
			keyed[i].view = view
			json.Unmarshal(view, &keyed[i].listKey) // a view that does not decode sorts first
		}
		sort.Slice(keyed, func(i, j int) bool {
			a, b := &keyed[i].listKey, &keyed[j].listKey
			if !a.Created.Equal(b.Created) {
				return a.Created.Before(b.Created)
			}
			return a.ID < b.ID
		})
		for i := range keyed {
			jobs[i] = keyed[i].view
		}
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

func (n *Node) handleLocalJobs(w http.ResponseWriter, req *http.Request) {
	jobs, err := n.reg.ListViews()
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, localJobsResponse{Node: n.cfg.ID, Jobs: jobs})
}

func (n *Node) handleGet(w http.ResponseWriter, req *http.Request) {
	n.proxyJob(w, req, n.reg.View)
}

func (n *Node) handleCancel(w http.ResponseWriter, req *http.Request) {
	n.proxyJob(w, req, n.reg.CancelView)
}

// proxyJob serves a per-job request locally when the job is hosted
// here, answering with the view local returns, otherwise forwards it to
// the ring owner. Forwarded requests are always answered locally: a
// stale ring cannot cause a loop, only a 404.
func (n *Node) proxyJob(w http.ResponseWriter, req *http.Request, local func(string) ([]byte, error)) {
	id := req.PathValue("id")
	view, err := local(id)
	if !errors.Is(err, server.ErrNotFound) {
		server.WriteView(w, view, err)
		return
	}
	// If fencing moved the job to another node while this one was
	// partitioned, relay to the recorded adopter. This fires even for
	// already-forwarded requests — each fencedTo hop points at a node
	// holding the job at a strictly higher fence, so a chain of relays
	// cannot cycle; a stale mapping degrades to 404, never a loop.
	n.mu.Lock()
	dest := n.fencedTo[id]
	n.mu.Unlock()
	if addr := n.members.addr(dest); dest != "" && addr != "" {
		n.forwarded.Add(1)
		n.relay(w, req.Method, addr+"/v1/jobs/"+url.PathEscape(id), nil)
		return
	}
	owner := n.ring.Owner(id)
	if req.Header.Get(forwardedHeader) != "" || owner == n.cfg.ID || owner == "" {
		server.WriteError(w, http.StatusNotFound, err)
		return
	}
	addr := n.members.addr(owner)
	if addr == "" {
		server.WriteError(w, http.StatusNotFound, err)
		return
	}
	n.forwarded.Add(1)
	n.relay(w, req.Method, addr+"/v1/jobs/"+url.PathEscape(id), nil)
}

func (n *Node) handleCluster(w http.ResponseWriter, req *http.Request) {
	peers := n.members.snapshot()
	sort.Slice(peers, func(i, j int) bool { return peers[i].ID < peers[j].ID })
	server.WriteJSON(w, http.StatusOK, ClusterView{
		Self:            n.self(),
		Ring:            n.ring.Nodes(),
		Peers:           peers,
		ReplicatedJobs:  n.store.jobCount(),
		JobsAdopted:     n.adopted.Load(),
		Forwarded:       n.forwarded.Load(),
		Quorum:          n.quorumOK.Load(),
		Minority:        n.reg.Minority(),
		FenceRejections: n.fenceRejections.Load(),
		JobsFencedOut:   n.reg.Counters().FencedOut,
	})
}

func (n *Node) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	server.WriteMetrics(w, n.reg)
	n.writeFleetMetrics(w)
}

func (n *Node) handleJoin(w http.ResponseWriter, req *http.Request) {
	var jr joinRequest
	if err := json.NewDecoder(req.Body).Decode(&jr); err != nil || jr.ID == "" {
		server.WriteError(w, http.StatusBadRequest, errors.New("bad join request"))
		return
	}
	if n.members.observe(jr.ID, jr.Addr, 0) {
		n.ring.Add(jr.ID)
		n.cfg.Logf("fleet %s: %s joined (%s)", n.cfg.ID, jr.ID, jr.Addr)
	}
	server.WriteJSON(w, http.StatusOK, joinResponse{ID: n.cfg.ID, Members: n.members.live(n.self())})
}

func (n *Node) handleHeartbeat(w http.ResponseWriter, req *http.Request) {
	var hb heartbeatRequest
	if err := json.NewDecoder(req.Body).Decode(&hb); err != nil || hb.ID == "" {
		server.WriteError(w, http.StatusBadRequest, errors.New("bad heartbeat"))
		return
	}
	if n.members.observe(hb.ID, hb.Addr, 0) {
		n.ring.Add(hb.ID)
	}
	for _, id := range n.members.merge(n.cfg.ID, hb.Members) {
		n.ring.Add(id)
	}
	server.WriteJSON(w, http.StatusOK, heartbeatResponse{ID: n.cfg.ID, Members: n.members.live(n.self())})
}

func (n *Node) handleReplicate(w http.ResponseWriter, req *http.Request) {
	var rr replicateRequest
	if err := json.NewDecoder(req.Body).Decode(&rr); err != nil || rr.From == "" {
		server.WriteError(w, http.StatusBadRequest, errors.New("bad replicate request"))
		return
	}
	rejected := n.store.apply(rr.From, rr.Full, rr.Records)
	if rejected > 0 {
		n.fenceRejections.Add(int64(rejected))
		n.cfg.Logf("fleet %s: rejected %d stale-fence records from %s", n.cfg.ID, rejected, rr.From)
	}
	server.WriteJSON(w, http.StatusOK, map[string]int{"accepted": len(rr.Records) - rejected, "fence_rejected": rejected})
}

// handleDigest is the receiving half of heal-time anti-entropy: fold in
// the caller's fence digest, then answer with ours so one exchange
// converges both sides.
func (n *Node) handleDigest(w http.ResponseWriter, req *http.Request) {
	var dr digestRequest
	if err := json.NewDecoder(req.Body).Decode(&dr); err != nil || dr.From == "" {
		server.WriteError(w, http.StatusBadRequest, errors.New("bad digest request"))
		return
	}
	n.processDigest(dr.From, dr.Jobs)
	server.WriteJSON(w, http.StatusOK, digestResponse{ID: n.cfg.ID, Jobs: n.reg.HostedFences()})
}

// processDigest reconciles a peer's per-job fence digest against the
// local registry: any local copy superseded by a higher remote epoch is
// fenced out (cancelled, discarded, journal tail compacted away), and
// the job's new host is remembered so per-job API requests relay there.
// Highest fence wins; the registry's done-state guard keeps finished
// local results in place.
func (n *Node) processDigest(from string, jobs []server.JobFence) {
	for _, d := range jobs {
		if d.ID == "" {
			continue
		}
		local, hosted := n.reg.Fence(d.ID)
		if hosted && d.Fence <= local {
			continue // our copy is current or newer: nothing to cede
		}
		if hosted {
			if !n.reg.FenceOut(d.ID, d.Fence) {
				continue // done-state guard (or a raced fence-out)
			}
			n.cfg.Logf("fleet %s: fenced out %s at epoch %d (owned by %s)", n.cfg.ID, d.ID, d.Fence, from)
		}
		n.mu.Lock()
		n.fencedTo[d.ID] = from
		n.mu.Unlock()
	}
}

// handleNetfault steers the test-only fault injector. Inbound HTTP is
// never impaired by the injector, so this endpoint stays reachable on a
// "partitioned" node — that is what makes scripted heal possible.
func (n *Node) handleNetfault(w http.ResponseWriter, req *http.Request) {
	var nr netfaultRequest
	if err := json.NewDecoder(req.Body).Decode(&nr); err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad netfault request: %w", err))
		return
	}
	if nr.Clear {
		n.cfg.Fault.Clear()
	}
	if nr.Set != nil {
		n.cfg.Fault.SetRules(nr.Set...)
	}
	if len(nr.Add) > 0 {
		n.cfg.Fault.AddRules(nr.Add...)
	}
	n.writeNetfaultState(w)
}

func (n *Node) handleNetfaultGet(w http.ResponseWriter, req *http.Request) {
	n.writeNetfaultState(w)
}

func (n *Node) writeNetfaultState(w http.ResponseWriter) {
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"rules": n.cfg.Fault.Rules(),
		"stats": n.cfg.Fault.Stats(),
	})
}

func (n *Node) handleLeave(w http.ResponseWriter, req *http.Request) {
	var lr leaveRequest
	if err := json.NewDecoder(req.Body).Decode(&lr); err != nil || lr.ID == "" {
		server.WriteError(w, http.StatusBadRequest, errors.New("bad leave request"))
		return
	}
	if n.members.markLeft(lr.ID) {
		n.cfg.Logf("fleet %s: %s left gracefully", n.cfg.ID, lr.ID)
		// A clean leaver drained first, so its replicas here are
		// completed results; adopt them to keep them queryable.
		n.adoptFrom(lr.ID)
	}
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// --- failure detection and adoption ---

func (n *Node) heartbeatLoop() {
	defer n.wg.Done()
	// Jitter each round ±20% around the configured period, seeded from
	// the node ID so replays are deterministic. Without jitter a fleet
	// started by one script heartbeats in lockstep forever, thundering
	// the same instant every period.
	rng := rand.New(rand.NewSource(int64(hashKey(n.cfg.ID))))
	jittered := func() time.Duration {
		return time.Duration(float64(n.cfg.HeartbeatEvery) * (0.8 + 0.4*rng.Float64()))
	}
	t := time.NewTimer(jittered())
	defer t.Stop()
	ticks := 0
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.heartbeatRound()
			if ticks++; ticks%resyncTicks == 0 {
				n.resyncAll()
			}
			t.Reset(jittered())
		}
	}
}

func (n *Node) heartbeatRound() {
	targets := n.members.targets()
	if !n.quorumOK.Load() {
		// Without quorum, probe even peers held dead: rejoining the
		// majority by direct contact is this node's only way back.
		targets = n.members.rejoinTargets()
	}
	var wg sync.WaitGroup
	for _, t := range targets {
		wg.Add(1)
		go func(t memberInfo) {
			defer wg.Done()
			start := time.Now()
			var resp heartbeatResponse
			err := n.post(t.Addr+"/v1/fleet/heartbeat",
				heartbeatRequest{ID: n.cfg.ID, Addr: n.cfg.Advertise, Members: n.members.live(n.self())}, &resp)
			if err != nil {
				n.heartbeatsBad.Add(1)
				if _, died := n.members.fail(t.ID, suspectFactor*n.cfg.HeartbeatEvery, deadFactor*n.cfg.HeartbeatEvery); died {
					n.cfg.Logf("fleet %s: declaring %s dead", n.cfg.ID, t.ID)
					n.adoptFrom(t.ID)
				}
				return
			}
			n.heartbeatsOK.Add(1)
			revived := n.members.observe(t.ID, t.Addr, time.Since(start))
			if revived {
				n.ring.Add(t.ID)
				// A dead peer speaking again is a partition healing: swap
				// fence digests immediately rather than waiting for its
				// side to notice us, so at most one side briefly runs a
				// superseded copy.
				n.sendDigestTo(t)
			}
			for _, id := range n.members.merge(n.cfg.ID, resp.Members) {
				n.ring.Add(id)
			}
		}(t)
	}
	wg.Wait()
	n.updateQuorum()
	n.retryAdoptions()
}

// retryAdoptions adopts replicas still held for peers already declared
// dead. The died transition fires exactly once, so an adoption
// suppressed during a transient quorum dip would otherwise be lost
// forever; this runs every round and is a no-op once the store drains.
func (n *Node) retryAdoptions() {
	if !n.quorumOK.Load() {
		return
	}
	for _, src := range n.store.sources() {
		if n.members.isDead(src) {
			n.adoptFrom(src)
		}
	}
}

// updateQuorum re-evaluates majority reachability after a heartbeat
// round and drives the registry in and out of minority mode on flips.
// Healing runs reconciliation BEFORE lifting minority mode: paused jobs
// that a majority node adopted must be fenced out while still paused, or
// they would race their adopted twins in the resume window.
func (n *Node) updateQuorum() {
	ok := n.members.quorum()
	if !n.quorumOK.CompareAndSwap(!ok, ok) {
		return // no flip
	}
	n.minorityFlips.Add(1)
	if !ok {
		n.cfg.Logf("fleet %s: lost quorum, entering minority mode", n.cfg.ID)
		n.reg.SetMinority(true)
		return
	}
	n.cfg.Logf("fleet %s: regained quorum, reconciling before resume", n.cfg.ID)
	n.reconcile()
	n.reg.SetMinority(false)
}

// reconcile exchanges fence digests with every probe-able peer. Called
// on quorum regain; the revival path in heartbeatRound covers the
// majority side, so between them both halves of a healed partition
// converge within one round.
func (n *Node) reconcile() {
	for _, t := range n.members.targets() {
		n.sendDigestTo(t)
	}
}

func (n *Node) sendDigestTo(t memberInfo) {
	if t.Addr == "" {
		return
	}
	var resp digestResponse
	err := n.post(t.Addr+"/v1/fleet/digest", digestRequest{From: n.cfg.ID, Jobs: n.reg.HostedFences()}, &resp)
	if err != nil {
		n.digestErrors.Add(1)
		n.cfg.Logf("fleet %s: digest exchange with %s failed: %v", n.cfg.ID, t.ID, err)
		return
	}
	n.processDigest(resp.ID, resp.Jobs)
}

// adoptFrom takes over the replicated jobs of a dead (or cleanly left)
// peer. Each owner replicated a job only to its ring successor, so the
// store holds exactly the jobs whose new owner is this node; the
// ownership re-check only drops replicas orphaned by membership drift.
func (n *Node) adoptFrom(deadID string) {
	// Quorum gate: declaring a peer dead is only actionable from the
	// majority side of a split. Check membership fresh (not the cached
	// flag) — the caller just marked deadID dead, so the count already
	// reflects it; a minority node suppresses adoption entirely and the
	// true majority's adopter wins the fence race unopposed.
	if !n.members.quorum() {
		n.adoptSuppressed.Add(1)
		n.cfg.Logf("fleet %s: suppressing adoption from %s (no quorum)", n.cfg.ID, deadID)
		return
	}
	n.ring.Remove(deadID)
	streams := n.store.take(deadID)
	ids := make([]string, 0, len(streams))
	for id := range streams {
		if n.ring.Owner(id) != n.cfg.ID {
			n.cfg.Logf("fleet %s: replica %s from %s now owned elsewhere, dropping", n.cfg.ID, id, deadID)
			delete(streams, id)
			continue
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return
	}
	sort.Strings(ids)
	var recs []journal.Record
	for _, id := range ids {
		recs = append(recs, streams[id]...)
	}
	stats, err := n.reg.Adopt(recs)
	if err != nil {
		n.cfg.Logf("fleet %s: adopting %d jobs from %s failed: %v", n.cfg.ID, len(ids), deadID, err)
		return
	}
	n.mu.Lock()
	for _, id := range ids {
		n.adoptions[id] = streams[id]
	}
	n.mu.Unlock()
	n.adopted.Add(int64(stats.Resumed + stats.Restarted + stats.Requeued + stats.Completed))
	n.cfg.Logf("fleet %s: adopted %d jobs from %s (%+v)", n.cfg.ID, len(ids), deadID, stats)
}

// handoff gives one detached queued job to dest during a graceful
// drain. Reports success; the caller keeps the job on failure.
func (n *Node) handoff(dest string, q server.QueuedJob) bool {
	if dest == "" || dest == n.cfg.ID {
		return false
	}
	addr := n.members.addr(dest)
	if addr == "" {
		return false
	}
	err := n.post(addr+"/v1/fleet/submit", fleetSubmitRequest{ID: q.ID, Spec: q.Spec}, nil)
	if err != nil {
		n.cfg.Logf("fleet %s: handoff of %s to %s failed: %v", n.cfg.ID, q.ID, dest, err)
		return false
	}
	return true
}

// --- HTTP plumbing ---

// post sends a JSON request and decodes the JSON response into out
// (when non-nil). Non-2xx responses are errors.
func (n *Node) post(rawURL string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, rawURL, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return n.do(req, out)
}

func (n *Node) get(rawURL string, out any) error {
	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		return err
	}
	req.Header.Set(forwardedHeader, "1")
	return n.do(req, out)
}

func (n *Node) do(req *http.Request, out any) error {
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("fleet: %s %s: status %d", req.Method, req.URL, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// relay proxies one API request to a peer and copies the response back
// verbatim, tagging it so the peer answers locally.
func (n *Node) relay(w http.ResponseWriter, method, rawURL string, body any) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			server.WriteError(w, http.StatusInternalServerError, err)
			return
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, rawURL, rd)
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	req.Header.Set(forwardedHeader, "1")
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := n.client.Do(req)
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, fmt.Errorf("fleet: forward to %s: %w", rawURL, err))
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	// A shed submission's backoff hint must survive the gateway hop, or
	// proxied clients lose the derived Retry-After and hammer the owner.
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}
