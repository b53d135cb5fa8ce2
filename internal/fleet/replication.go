package fleet

import (
	"slices"
	"sync"

	"autopipe/internal/journal"
)

// jobReplica is the durable state this node holds on behalf of a peer
// for one job: the latest record of each type. That is exactly the
// compact form Registry.ExportRecords emits and Registry.Adopt replays,
// so keep-latest-per-type loses nothing while bounding memory to O(1)
// per job regardless of how many checkpoints stream through.
type jobReplica struct {
	sub        *journal.Record
	state      *journal.Record
	checkpoint *journal.Record
	completed  *journal.Record
}

func (jr *jobReplica) apply(rec journal.Record) {
	r := rec // copy; the slice entry may be reused by the decoder
	switch rec.Type {
	case journal.TypeSubmitted:
		jr.sub = &r
	case journal.TypeState:
		jr.state = &r
	case journal.TypeCheckpoint:
		jr.checkpoint = &r
	case journal.TypeCompleted:
		jr.completed = &r
		// A finished job's replay needs no intermediate state: drop the
		// superseded records so adoption restores it read-only.
		jr.state, jr.checkpoint = nil, nil
	}
}

// stream renders the replica back into replay order for Adopt.
func (jr *jobReplica) stream() []journal.Record {
	var out []journal.Record
	for _, r := range []*journal.Record{jr.sub, jr.state, jr.checkpoint, jr.completed} {
		if r != nil {
			out = append(out, *r)
		}
	}
	return out
}

// replicaStore holds replicated journal streams keyed by source node.
// Each owner replicates a job only to its ring successor, so the store
// on node S contains, per dead peer X, exactly the jobs S must adopt.
type replicaStore struct {
	mu     sync.Mutex
	byNode map[string]map[string]*jobReplica // src node -> job id -> replica
	// maxFence is the highest ownership epoch seen per job across ALL
	// sources. Records below it are stale-owner writes — a healed
	// ex-owner (or a replica of it) trying to overwrite the adopter's
	// progress — and are rejected.
	maxFence map[string]uint64
}

func newReplicaStore() *replicaStore {
	return &replicaStore{
		byNode:   map[string]map[string]*jobReplica{},
		maxFence: map[string]uint64{},
	}
}

// apply merges one replication batch from a peer, returning how many
// records were rejected for carrying a stale fence. full=true replaces
// the stored state of every job mentioned in the batch (a resync or
// submit-time sync); full=false appends incrementally. A streamed
// record starts no replica but with the job's submitted record: a
// replica without its spec could not be adopted, so it must not count
// among the jobs held (replicated_jobs) either, or an owner whose
// successor restarted empty would stream such a replica a job's tail
// and never see the shortfall that makes it send the job whole.
func (s *replicaStore) apply(from string, full bool, recs []journal.Record) (rejected int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Fence filter first: a full replace made of stale records must not
	// reach the reset logic below, or it would erase newer state.
	kept := recs[:0:0]
	for _, rec := range recs {
		if rec.JobID != "" {
			if max := s.maxFence[rec.JobID]; rec.Fence < max {
				rejected++
				continue
			} else if rec.Fence > max {
				s.maxFence[rec.JobID] = rec.Fence
			}
		}
		kept = append(kept, rec)
	}
	recs = kept
	jobs, ok := s.byNode[from]
	if !ok {
		jobs = map[string]*jobReplica{}
		s.byNode[from] = jobs
	}
	if full {
		// Completion is terminal: a full replace that lacks a completed
		// record must not erase one we already hold — stale syncs (raced
		// or delayed on the wire) would otherwise resurrect a finished
		// job as running and the successor would run it twice.
		hasCompleted := map[string]bool{}
		for _, rec := range recs {
			if rec.JobID != "" && rec.Type == journal.TypeCompleted {
				hasCompleted[rec.JobID] = true
			}
		}
		reset := map[string]bool{}
		for _, rec := range recs {
			if rec.JobID == "" || reset[rec.JobID] {
				continue
			}
			reset[rec.JobID] = true
			old := jobs[rec.JobID]
			fresh := &jobReplica{}
			if old != nil && old.completed != nil && !hasCompleted[rec.JobID] {
				fresh.completed = old.completed
			}
			jobs[rec.JobID] = fresh
		}
	}
	for _, rec := range recs {
		if rec.JobID == "" {
			continue
		}
		jr, ok := jobs[rec.JobID]
		if !ok {
			if rec.Type != journal.TypeSubmitted {
				continue
			}
			jr = &jobReplica{}
			jobs[rec.JobID] = jr
		}
		jr.apply(rec)
	}
	return rejected
}

// take removes and returns a peer's replicated streams, one record
// slice per job. Called once when the peer is declared dead.
func (s *replicaStore) take(from string) map[string][]journal.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := s.byNode[from]
	delete(s.byNode, from)
	out := make(map[string][]journal.Record, len(jobs))
	for id, jr := range jobs {
		out[id] = jr.stream()
	}
	return out
}

// sources lists peers we still hold replicas for.
func (s *replicaStore) sources() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.byNode))
	for src, jobs := range s.byNode {
		if len(jobs) > 0 {
			out = append(out, src)
		}
	}
	return out
}

// jobCount reports replicated jobs per source for the cluster view.
func (s *replicaStore) jobCount() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.byNode))
	for src, jobs := range s.byNode {
		out[src] = len(jobs)
	}
	return out
}

// --- sending: each record to a successor once ---

// replPath names what sent a replicate POST, for
// autopiped_fleet_replicate_posts_total.
type replPath int

const (
	pathAdmit  replPath = iota // the synchronous sync before a 201
	pathStream                 // records streamed as the registry produces them
	pathResync                 // periodic and final resyncs
	numReplPaths
)

var replPathNames = [numReplPaths]string{"admit", "stream", "resync"}

// maxHeld bounds the records held back for one admitting job; more are
// lost to the stream, leaving the job to a resync.
const maxHeld = 64

// replAck is what this node knows of one hosted job's replica: version
// counts the job's records observed here, and dest, the successor, has
// acknowledged every one up to acked. lost is the highest version
// known not to have reached dest in order: dropped under backpressure,
// a failed or overlapped POST, or a record sent to another successor.
// A resync sends the job whole when its successor changed or lost is
// ahead of acked; records merely still on their way wait for their
// own acknowledgement.
//
// A replicate POST's success counts as an acknowledgement only when no
// other POST of the same job overlapped it: then the successor applied
// the job's POSTs in the order this node sent them. Otherwise (a full
// sync exported before a record that a concurrent stream delivers
// first, say) the job is marked lost and the next resync sends it.
type replAck struct {
	version uint64
	dest    string
	acked   uint64
	lost    uint64
	// sends counts the job's POSTs started, inflight those unanswered.
	sends    uint64
	inflight int
}

// replSend is one job's share of a replicate POST in flight.
type replSend struct {
	ack     *replAck
	version uint64 // a full sync's: the version read before its export
	mark    uint64 // ack.sends when the POST started
	solo    bool   // no other POST of the job was in flight then
}

// begin starts a POST carrying the job at version. Caller holds ackMu.
func (a *replAck) begin(version uint64) replSend {
	a.sends++
	s := replSend{ack: a, version: version, mark: a.sends, solo: a.inflight == 0}
	a.inflight++
	return s
}

// end finishes a POST and reports whether it arrived with no other POST
// of the job overlapping it. Caller holds ackMu.
func (s replSend) end(ok bool) bool {
	s.ack.inflight--
	return ok && s.solo && s.ack.sends == s.mark
}

// lose records that the job's version v did not reach its successor in
// order. Caller holds ackMu.
func (a *replAck) lose(v uint64) { a.lost = max(a.lost, v) }

// ackLocked returns the job's entry, creating it. Caller holds ackMu.
func (n *Node) ackLocked(id string) *replAck {
	a := n.acks[id]
	if a == nil {
		a = &replAck{}
		n.acks[id] = a
	}
	return a
}

// streamed is one observed record on its way to the successor, with
// the job's version it brings the successor to.
type streamed struct {
	rec     journal.Record
	ack     *replAck
	version uint64
}

// observeRecord is the registry's OnRecord hook. It runs under an
// internal registry lock, so it must not block: it bumps the job's
// version and queues the record for the replicator goroutine, or holds
// it back while the job's admission sync runs.
func (n *Node) observeRecord(rec journal.Record) {
	if rec.JobID == "" {
		return
	}
	n.ackMu.Lock()
	defer n.ackMu.Unlock()
	a := n.ackLocked(rec.JobID)
	a.version++
	item := streamed{rec: rec, ack: a, version: a.version}
	held, admitting := n.admitting[rec.JobID]
	switch {
	case !admitting:
		n.queueLocked(item)
	case len(held) < maxHeld:
		n.admitting[rec.JobID] = append(held, item)
	default:
		a.lose(item.version)
		n.replDropped.Add(1)
	}
}

// queueLocked hands a record to the replicator, dropping it under
// backpressure. Caller holds ackMu.
func (n *Node) queueLocked(item streamed) {
	select {
	case n.replCh <- item:
	default:
		item.ack.lose(item.version)
		n.replDropped.Add(1)
	}
}

func (n *Node) replicatorLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stop:
			return
		case item := <-n.replCh:
			batch := map[string][]streamed{}
			n.addToBatch(batch, item)
			for i := 0; i < 63; i++ {
				select {
				case more := <-n.replCh:
					n.addToBatch(batch, more)
					continue
				default:
				}
				break
			}
			for dest, items := range batch {
				n.stream(dest, items)
			}
		}
	}
}

func (n *Node) addToBatch(batch map[string][]streamed, item streamed) {
	dest := n.ring.OwnerExcluding(item.rec.JobID, n.cfg.ID)
	if dest == "" {
		n.ackMu.Lock()
		item.ack.lose(item.version)
		n.ackMu.Unlock()
		return
	}
	batch[dest] = append(batch[dest], item)
}

// stream sends records to dest in one POST, leaving out those dest has
// acknowledged already. A record acknowledges its version when the POST
// arrived unoverlapped and dest had acknowledged the version just
// before it; otherwise it is lost.
func (n *Node) stream(dest string, items []streamed) {
	var sends []replSend
	n.ackMu.Lock()
	items = slices.DeleteFunc(items, func(it streamed) bool {
		return it.ack.dest == dest && it.version <= it.ack.acked
	})
	recs := make([]journal.Record, len(items))
	for i, it := range items {
		recs[i] = it.rec
		if !slices.ContainsFunc(sends, func(s replSend) bool { return s.ack == it.ack }) {
			sends = append(sends, it.ack.begin(0))
		}
	}
	n.ackMu.Unlock()
	ok := n.sendReplicate(pathStream, dest, false, recs)
	n.ackMu.Lock()
	defer n.ackMu.Unlock()
	var trusted []*replAck
	for _, s := range sends {
		if s.end(ok) {
			trusted = append(trusted, s.ack)
		}
	}
	for _, it := range items {
		a := it.ack
		if a.dest == dest && a.acked+1 == it.version && slices.Contains(trusted, a) {
			a.acked = it.version
		} else {
			a.lose(it.version)
		}
	}
}

// sendReplicate POSTs one replication batch to a peer and reports
// whether it arrived.
func (n *Node) sendReplicate(path replPath, destID string, full bool, recs []journal.Record) bool {
	addr := n.members.addr(destID)
	if addr == "" || len(recs) == 0 {
		return false
	}
	n.replPosts[path].Add(1)
	err := n.post(addr+"/v1/fleet/replicate", replicateRequest{From: n.cfg.ID, Full: full, Records: recs}, nil)
	if err != nil {
		n.replErrors.Add(1)
		return false
	}
	n.replSent.Add(int64(len(recs)))
	return true
}

// fullSync pushes the given jobs' whole durable state to dest in one
// POST and reports whether it arrived. Each job's version is read
// before the export, which therefore holds at least that much: an
// unoverlapped arrival acknowledges it, anything else loses it. The
// records held back for an admitting job up to that version are
// dropped: the export carries them.
func (n *Node) fullSync(path replPath, dest string, ids []string) bool {
	sends := make([]replSend, len(ids))
	n.ackMu.Lock()
	for i, id := range ids {
		if _, admitting := n.admitting[id]; admitting {
			n.admitting[id] = nil
		}
		a := n.ackLocked(id)
		sends[i] = a.begin(a.version)
	}
	n.ackMu.Unlock()
	ok := n.sendReplicate(path, dest, true, n.reg.ExportRecords(ids...))
	n.ackMu.Lock()
	defer n.ackMu.Unlock()
	for _, s := range sends {
		if s.end(ok) {
			s.ack.dest, s.ack.acked = dest, s.version
		} else {
			s.ack.lose(s.version)
		}
	}
	return ok
}

// syncAdmitted pushes a just-admitted job to its ring successor
// synchronously, then streams the records the job produced after the
// export, in order. A failed sync is counted; the job stays
// unacknowledged.
func (n *Node) syncAdmitted(id string) {
	if dest := n.ring.OwnerExcluding(id, n.cfg.ID); dest != "" && !n.fullSync(pathAdmit, dest, []string{id}) {
		n.admitSyncFailures.Add(1)
	}
	n.ackMu.Lock()
	defer n.ackMu.Unlock()
	for _, item := range n.admitting[id] {
		n.queueLocked(item)
	}
	delete(n.admitting, id)
}

// resyncAll is replication's periodic repair: it full-syncs to its
// current successor every hosted job that successor has not
// acknowledged in full and will not through the stream.
func (n *Node) resyncAll() {
	n.recheckSuccessors()
	n.resync(false)
}

// resync full-syncs hosted jobs to their current successors, one POST
// per successor: every job with all (the drain's final sync), otherwise
// those stale.
func (n *Node) resync(all bool) {
	for dest, ids := range n.unsynced(all) {
		n.resyncJobs.Add(int64(len(ids)))
		n.fullSync(pathResync, dest, ids)
	}
}

// unsynced groups by successor the hosted jobs a resync sends: every
// one with all, otherwise those without an entry, whose successor
// changed, or with a lost record not since acknowledged. It forgets
// the entries of jobs no longer hosted.
func (n *Node) unsynced(all bool) map[string][]string {
	hosted := n.reg.HostedFences()
	dests := make([]string, len(hosted))
	for i, job := range hosted {
		dests[i] = n.ring.OwnerExcluding(job.ID, n.cfg.ID)
	}
	byDest := map[string][]string{}
	n.ackMu.Lock()
	defer n.ackMu.Unlock()
	keep := make(map[string]bool, len(hosted))
	for i, job := range hosted {
		keep[job.ID] = true
		a := n.acks[job.ID]
		stale := a == nil || a.dest != dests[i] || a.lost > a.acked
		if dests[i] != "" && (all || stale) {
			byDest[dests[i]] = append(byDest[dests[i]], job.ID)
		}
	}
	for id := range n.acks {
		if !keep[id] {
			delete(n.acks, id)
		}
	}
	return byDest
}

// recheckSuccessors asks each successor holding acknowledged replicas
// how many jobs it holds for this node (GET /v1/cluster). One that
// holds fewer than it acknowledged has lost replicas — it restarted, or
// declared this node dead and took them — so its acknowledgements are
// forgotten and the resync sends those jobs again in full.
func (n *Node) recheckSuccessors() {
	held := map[string]int{}
	n.ackMu.Lock()
	for _, a := range n.acks {
		if a.dest != "" {
			held[a.dest]++
		}
	}
	n.ackMu.Unlock()
	for dest, want := range held {
		addr := n.members.addr(dest)
		if addr == "" {
			continue
		}
		var view ClusterView
		if err := n.get(addr+"/v1/cluster", &view); err != nil || view.ReplicatedJobs[n.cfg.ID] >= want {
			continue
		}
		n.cfg.Logf("fleet %s: %s holds %d of %d acknowledged replicas, resending", n.cfg.ID, dest, view.ReplicatedJobs[n.cfg.ID], want)
		n.ackMu.Lock()
		for _, a := range n.acks {
			if a.dest == dest {
				a.dest = ""
			}
		}
		n.ackMu.Unlock()
	}
}
