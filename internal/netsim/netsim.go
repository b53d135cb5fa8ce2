// Package netsim is a flow-level network simulator on top of the
// discrete-event kernel. Flows between cluster workers share link
// capacity max-min fairly (progressive filling), recomputed whenever a
// flow starts, a flow finishes, or link capacities change.
//
// It replaces the paper's physical Mellanox fabric: PipeDream's planner
// assumes a hierarchical topology with uniform per-level bandwidth and
// all-reduce collectives, and the paper's point is that reality —
// heterogeneous, fluctuating, possibly parameter-server-based — diverges
// from that model. This package provides the reality; the planner keeps
// its simplifying assumptions.
//
// A job's steady state allocates nothing per flow. Flow state is
// recycled through a per-network free list, so callers hold a FlowID,
// never a pointer: an ID is valid until its flow finishes or is
// cancelled, and a stale ID is a no-op. A flow's Name is kept as parts
// and rendered only where it is read — the fault hook, StallMatching and
// FlowRecord consumers.
//
// Settling: a flow start, finish, cancel, stall or capacity change runs
// reschedule, whose eager half (finish drained flows, run observers and
// callbacks) acts at once, but whose solve — the max-min rates and the
// completion event — is settled once per simulated instant, by an
// end-of-instant callback on the engine. Within one instant no time
// passes, so the rates an earlier solve would have produced are never
// integrated; the completion event is armed with the sequence number
// reserved at the last reschedule, so it orders among other events
// exactly as an eager re-arm at that point would have. That is exact
// while now·C ≤ 1e15, C bounding every link capacity and rate seen so
// far: the drained-flow threshold max(1 bit, rate·now·1e-15), the only
// other reader of a rate, is then exactly one bit, and no completion
// can round onto the current instant. The network defers while
// now·C ≤ 5e14, a factor of two inside, so rounding in the check itself
// cannot matter; past it each reschedule settles inline, as the solver
// always did.
package netsim

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"autopipe/internal/cluster"
	"autopipe/internal/sim"
)

// FlowID is a handle on a started flow, for CancelFlow; 0 is no flow.
// It is valid until the flow finishes or is cancelled: flow state is
// recycled after that, and a stale ID is a no-op.
type FlowID uint64

// flow is one transfer from StartFlow until it finishes, is cancelled or
// is dropped. Flow structs are recycled through the network's free list,
// so no *flow leaves the package: callers hold a FlowID, which carries
// the struct's slot and the generation it was issued in.
type flow struct {
	// id is the injection order, assigned when the flow enters the
	// allocator: it orders n.flows, freezing and completion callbacks.
	id       uint64
	name     Name
	src, dst int
	// weight is the flow's share weight in the weighted max-min
	// allocation (1 by default). Communication scheduling à la
	// ByteScheduler gives latency-sensitive pipeline transfers more
	// weight than bulk gradient syncs.
	weight float64
	// remaining and original bits
	remaining float64
	origBits  float64
	rate      float64 // bits/sec, assigned by the fair-share computation
	path      path
	done      func()
	// requested is when the caller asked for the transfer — before any
	// propagation or queueing delay. Completion records measure from
	// here: that is the latency the job's transport layer experiences.
	requested sim.Time
	// background marks cross-traffic flows (see CrossTraffic); consumers
	// estimating the job's own bandwidth must ignore them.
	background bool
	// stalled flows hold their state but receive no bandwidth and never
	// finish (fault injection); CancelFlow removes them like any other.
	stalled bool
	// waiting flows are still waiting out their propagation/queueing
	// delay; they are not yet in the allocator.
	waiting bool
	// slot indexes Network.slab; gen counts the struct's releases, so a
	// FlowID issued before a release no longer matches.
	slot uint32
	gen  uint32
	// prop fires when the flow's delay has passed and injects it; built
	// on first use and re-armed for every delayed flow this struct holds.
	prop *sim.Event
}

// handle returns the flow's current FlowID.
func (f *flow) handle() FlowID {
	return FlowID(uint64(f.gen)<<32 | uint64(f.slot+1))
}

// path is a route as dense link indices, stored inline: at most four
// hops (NIC up, NIC down and, across racks, the two rack core links).
type path struct {
	ids [4]int32
	n   int32
}

// links returns the path's link indices.
func (p *path) links() []int32 { return p.ids[:p.n] }

// linkState is one link's progressive-filling state during a recompute.
type linkState struct {
	cap      float64
	frozen   float64 // load of frozen flows
	unfrozen float64 // total weight of unfrozen flows
	count    int     // active flows traversing the link; 0 = untouched
	live     int     // unfrozen flows traversing the link
}

// Network simulates all flows of the measured job over the cluster.
type Network struct {
	eng *sim.Engine
	cl  *cluster.Cluster

	// flows holds the active flows in ID order (IDs only grow, so
	// injection appends).
	flows  []*flow
	nextID uint64
	// slab holds every flow struct made, indexed by slot; free the
	// released ones, reused before any new one is made.
	slab       []*flow
	free       []*flow
	lastUpdate sim.Time
	// completion is the next-flow-completion event, re-armed by every
	// settle; onCompletion is its callback, bound once.
	completion   *sim.Event
	onCompletion func()
	// dirty marks a reschedule whose solve has not run yet; seq is the
	// engine sequence number it reserved for the completion event.
	// settleQueued is set while onSettle, bound once, waits on the
	// engine's end-of-instant queue. capHigh is the largest link
	// capacity seen so far, which bounds every rate ever assigned, and
	// horizon the last time a solve may be deferred to (see raiseBound).
	dirty        bool
	settleQueued bool
	seq          uint64
	onSettle     func()
	capHigh      float64
	horizon      sim.Time

	// Fair-share scratch reused by every recompute: per-link state
	// indexed by link id, the links the current flows touch (in first-
	// touch order), the flows still unfrozen, and reschedule's finished
	// flows.
	links    []linkState
	touched  []int32
	unfrozen []*flow
	finished []*flow

	// TotalBitsDelivered accumulates finished-flow volume (telemetry).
	TotalBitsDelivered float64

	// PerHopLatencySec adds a fixed propagation/processing delay per
	// link hop before a flow's data starts moving (0 = pure fluid
	// model, the default). Chatty protocols — e.g. ring all-reduce's
	// 2(N−1) barriered steps — pay it on every step.
	PerHopLatencySec float64

	// fault, when set, is consulted once per injected flow (see
	// SetFaultInjector).
	fault func(src, dst int, name Name) FlowFault

	// queue, when non-nil, enables the per-link queueing model (see
	// EnableQueueing in congestion.go): contended links accumulate
	// bounded drain-queue delay that newly injected flows wait out
	// before their data starts moving.
	queue *queueModel

	// observers receive a FlowRecord for every completed transfer (see
	// AddFlowObserver in congestion.go).
	observers []func(FlowRecord)
}

// FlowFault is a fault injector's verdict on a starting flow.
type FlowFault uint8

// Flow fault verdicts.
const (
	// FaultNone lets the flow proceed normally.
	FaultNone FlowFault = iota
	// FaultStall registers the flow but pins its rate to zero: it holds
	// its links' bookkeeping slot and never finishes unless cancelled —
	// the lost-transport failure mode a switch watchdog must detect.
	FaultStall
	// FaultDrop silently discards the flow: it is never registered and
	// its completion callback never fires — a transfer into a dead host.
	FaultDrop
)

// SetFaultInjector installs fn, consulted once per flow at injection
// time (nil disables). The hook renders the name only if it reads it.
// Local (same-worker or zero-byte) transfers bypass the fair-share
// allocator entirely and therefore also bypass fault injection.
func (n *Network) SetFaultInjector(fn func(src, dst int, name Name) FlowFault) {
	n.fault = fn
}

// StallMatching fault-stalls every in-flight flow whose name contains
// substr and returns how many it hit. Stalled flows keep their remaining
// volume but receive no bandwidth until cancelled.
func (n *Network) StallMatching(substr string) int {
	n.advance()
	hit := 0
	for _, f := range n.flows {
		if !f.stalled && strings.Contains(f.name.String(), substr) {
			f.stalled = true
			hit++
		}
	}
	n.reschedule()
	return hit
}

// EstimateSeconds returns the contention-free transfer time of bytes
// from src to dst at current link capacities — the deadline basis for
// migration watchdogs, not a throughput prediction. A fully throttled
// route falls back to 1 Gbps so deadlines stay finite.
func (n *Network) EstimateSeconds(src, dst int, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	if src == dst {
		return float64(bytes*8) / (n.cl.IntraServerBwBps * 4)
	}
	min := math.Inf(1)
	p := n.route(src, dst)
	for _, l := range p.links() {
		if c := n.capacity(l); c < min {
			min = c
		}
	}
	if min <= 0 || math.IsInf(min, 1) {
		min = 1e9
	}
	return float64(bytes*8) / min
}

// New creates a network bound to an engine and a cluster.
func New(eng *sim.Engine, cl *cluster.Cluster) *Network {
	n := &Network{eng: eng, cl: cl}
	n.onCompletion = func() {
		n.advance()
		n.reschedule()
	}
	n.onSettle = func() {
		n.settleQueued = false
		n.settle()
	}
	n.horizon = sim.Infinity
	n.raiseToCapacities()
	return n
}

// numLinks is the size of the dense link index space. Links are
// numbered densely so the allocator keeps per-link state in slices.
// With S servers and R racks: [0,S) are NIC uplinks, [S,2S) NIC
// downlinks, [2S,3S) intra-server paths, [3S,3S+R) rack core uplinks
// and [3S+R,3S+2R) rack core downlinks.
func (n *Network) numLinks() int {
	return 3*len(n.cl.Servers) + 2*max(n.cl.Racks, 0)
}

// capacity returns the current capacity of a link in bits/sec.
func (n *Network) capacity(l int32) float64 {
	s := int32(len(n.cl.Servers))
	switch {
	case l < 2*s:
		return n.cl.Servers[l%s].AvailBwBps()
	case l < 3*s:
		return n.cl.IntraServerBwBps
	default:
		return n.cl.RackUplinkBps
	}
}

// route returns the links a src→dst flow traverses: the intra-server
// path, or source uplink + destination downlink, plus — in the two-tier
// topology — the rack core uplinks when the endpoints sit under
// different leaf switches.
func (n *Network) route(src, dst int) path {
	if src == dst {
		return path{}
	}
	s := int32(len(n.cl.Servers))
	sa, sb := n.cl.GPUs[src].Server, n.cl.GPUs[dst].Server
	if sa == sb {
		return path{ids: [4]int32{2*s + int32(sa)}, n: 1}
	}
	p := path{ids: [4]int32{int32(sa), s + int32(sb)}, n: 2}
	if n.cl.Racks > 1 {
		ra, rb := n.cl.Servers[sa].Rack, n.cl.Servers[sb].Rack
		if ra != rb {
			r := int32(n.cl.Racks)
			p.ids[2], p.ids[3], p.n = 3*s+int32(ra), 3*s+r+int32(rb), 4
		}
	}
	return p
}

// StartFlow begins transferring bytes from src to dst and invokes done
// (may be nil) when the last bit arrives. Zero-byte and same-worker flows
// complete after a negligible local-copy delay and return 0: they cannot
// be cancelled. A flow dropped by the fault injector also returns 0.
func (n *Network) StartFlow(src, dst int, bytes int64, name Name, done func()) FlowID {
	return n.startFlow(src, dst, bytes, 1, name, false, done)
}

// StartWeightedFlow is StartFlow with an explicit share weight: on a
// congested link a weight-w flow receives w times the bandwidth of a
// weight-1 flow (weighted max-min fairness). Weights ≤ 0 are treated
// as 1.
func (n *Network) StartWeightedFlow(src, dst int, bytes int64, weight float64, name Name, done func()) FlowID {
	return n.startFlow(src, dst, bytes, weight, name, false, done)
}

// noop is the completion of a local flow started without a callback.
func noop() {}

// startFlow is the shared entry for job and background flows. A flow
// first waits out any fixed propagation delay plus the route's current
// queueing delay, then enters the fair-share allocator. Its handle is
// live through the wait, so cancelling a waiting flow drops it before it
// ever moves a bit.
//
// Its timer events carry constant per-kind labels ("netsim/local",
// "netsim/prop"): the flow's own name, which fault hooks, stalls and
// flow records match on, travels with the flow, not the event.
func (n *Network) startFlow(src, dst int, bytes int64, weight float64, name Name, background bool, done func()) FlowID {
	if bytes <= 0 || src == dst {
		latency := sim.Time(float64(bytes*8) / (n.cl.IntraServerBwBps * 4))
		if done == nil {
			done = noop
		}
		n.eng.After(latency, "netsim/local", done)
		return 0
	}
	if weight <= 0 {
		weight = 1
	}
	f := n.alloc()
	f.name, f.src, f.dst, f.weight = name, src, dst, weight
	f.remaining, f.origBits = float64(bytes*8), float64(bytes*8)
	f.done, f.requested, f.background = done, n.eng.Now(), background
	f.path = n.route(src, dst)
	id := f.handle()
	wait := n.PerHopLatencySec * float64(f.path.n)
	if n.queue != nil {
		wait += n.queue.routeDelay(&f.path)
	}
	if wait > 0 {
		f.waiting = true
		if f.prop == nil {
			f.prop = sim.NewEvent("netsim/prop", func() { n.inject(f) })
		}
		n.eng.Reschedule(f.prop, sim.Time(wait))
		return id
	}
	if !n.inject(f) {
		return 0
	}
	return id
}

// alloc takes a flow struct off the free list, or makes one.
func (n *Network) alloc() *flow {
	if k := len(n.free); k > 0 {
		f := n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
		return f
	}
	f := &flow{slot: uint32(len(n.slab))}
	n.slab = append(n.slab, f)
	return f
}

// release returns a flow struct to the free list and invalidates every
// FlowID issued for it.
func (n *Network) release(f *flow) {
	prop, slot, gen := f.prop, f.slot, f.gen+1
	*f = flow{prop: prop, slot: slot, gen: gen}
	n.free = append(n.free, f)
}

// lookup returns the flow id refers to, or nil when id is 0 or stale:
// release bumps the struct's generation past every ID issued for it.
func (n *Network) lookup(id FlowID) *flow {
	slot := uint32(id) - 1
	if id == 0 || int(slot) >= len(n.slab) {
		return nil
	}
	if f := n.slab[slot]; f.gen == uint32(id>>32) {
		return f
	}
	return nil
}

// inject registers the flow with the fair-share allocator, assigning
// its ID, or drops and releases it when the fault injector says so.
func (n *Network) inject(f *flow) bool {
	var fault FlowFault
	if n.fault != nil {
		fault = n.fault(f.src, f.dst, f.name)
	}
	if fault == FaultDrop {
		n.release(f)
		return false
	}
	n.advance()
	f.id = n.nextID
	n.nextID++
	f.stalled = fault == FaultStall
	f.waiting = false
	n.flows = append(n.flows, f)
	n.reschedule()
	return true
}

// CancelFlow aborts a flow without firing its callback: an active flow
// leaves the allocator, a waiting one is never injected. A stale or zero
// ID is a no-op, and so is the ID of a flow whose completion callbacks
// are running: it has already left n.flows.
func (n *Network) CancelFlow(id FlowID) {
	f := n.lookup(id)
	if f == nil {
		return
	}
	if f.waiting {
		n.eng.Cancel(f.prop)
		n.release(f)
		return
	}
	i, ok := slices.BinarySearchFunc(n.flows, f.id, func(g *flow, id uint64) int {
		return cmp.Compare(g.id, id)
	})
	if !ok {
		return
	}
	n.advance()
	if n.dirty && n.queue != nil && len(n.flows) == 1 {
		// The queue model keeps the last solved epoch's link loads, and
		// an empty flow set is never solved: settle the set this cancel
		// empties, as the eager solve of the last reschedule did.
		n.settle()
	}
	n.flows = slices.Delete(n.flows, i, i+1)
	n.release(f)
	n.reschedule()
}

// OnCapacityChange must be called after mutating the cluster's bandwidth
// state so in-flight flows are re-shared.
func (n *Network) OnCapacityChange() {
	n.raiseToCapacities()
	n.advance()
	n.reschedule()
}

// ActiveFlows returns the number of in-flight flows.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// advance progresses all flows' remaining volume to the current time
// using the rates assigned at the previous recompute.
func (n *Network) advance() {
	now := n.eng.Now()
	dt := float64(now - n.lastUpdate)
	n.lastUpdate = now
	if dt <= 0 {
		return
	}
	for _, f := range n.flows {
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
	if n.queue != nil {
		n.queue.advance(dt)
	}
}

// reschedule finishes drained flows, running their observers and
// callbacks, and leaves the new flow set's max-min rates and next
// completion to settle: at the end of the current instant, or at once
// past the exactness bound (see the package comment).
func (n *Network) reschedule() {
	n.eng.Cancel(n.completion)
	// Finish flows that have already drained (possibly several at once).
	// The threshold is one bit, widened by the time-ULP horizon: once a
	// flow's residual would complete within the float64 resolution of
	// the current clock, advancing time cannot drain it (dt rounds to
	// zero), so treat it as done to avoid a zero-progress event loop.
	now := float64(n.eng.Now())
	finished := n.finished[:0]
	active := n.flows[:0]
	for _, f := range n.flows {
		thresh := 1.0
		if ulp := f.rate * now * 1e-15; ulp > thresh {
			thresh = ulp
		}
		if !f.stalled && f.remaining <= thresh {
			finished = append(finished, f)
		} else {
			active = append(active, f)
		}
	}
	if len(finished) > 0 {
		clear(n.flows[len(active):])
		n.flows = active
		// Callbacks may start flows and so re-enter reschedule: they
		// must not reuse this buffer while it is being walked.
		n.finished = nil
		// Deterministic callback order: by flow ID.
		for _, f := range finished {
			n.TotalBitsDelivered += f.origBits
		}
		// Observers see every completion before any completion callback
		// runs, so an observer-driven estimator is up to date when the
		// callback reacts (e.g. starts the next dependent transfer).
		if len(n.observers) > 0 {
			for _, f := range finished {
				rec := n.record(f)
				for _, obs := range n.observers {
					obs(rec)
				}
			}
		}
		for _, f := range finished {
			if f.done != nil {
				f.done()
			}
		}
		// Only now, with every callback run, may the structs be reused.
		for _, f := range finished {
			n.release(f)
		}
		clear(finished)
		n.finished = finished[:0]
		// Callbacks may have started new flows; recompute afresh.
		n.reschedule()
		return
	}
	if len(n.flows) == 0 {
		n.dirty = false
		return
	}
	// The completion event takes this sequence number whenever settle
	// arms it: an eager re-arm here would have taken it.
	n.seq = n.eng.ReserveSeq()
	n.dirty = true
	if n.eng.Now() > n.horizon {
		n.settle()
		return
	}
	if !n.settleQueued {
		n.settleQueued = true
		n.eng.AtEndOfInstant(n.onSettle)
	}
}

// settleHorizon is the largest now·C up to which a solve is deferred
// (see the package comment).
const settleHorizon = 5e14

// raiseBound raises capHigh to a capacity c, and with it pulls in the
// horizon: rates are bounded by capHigh, so deferring is exact until
// settleHorizon / capHigh.
func (n *Network) raiseBound(c float64) {
	if c > n.capHigh {
		n.capHigh = c
		n.horizon = sim.Time(settleHorizon / c)
	}
}

// raiseToCapacities raises the bound to every link's current capacity.
// The solver raises it for the links it reads; this covers the links no
// flow crosses yet, when the network is built and whenever capacities
// change.
func (n *Network) raiseToCapacities() {
	n.raiseBound(n.cl.IntraServerBwBps)
	if n.cl.Racks > 1 {
		n.raiseBound(n.cl.RackUplinkBps)
	}
	for _, s := range n.cl.Servers {
		n.raiseBound(s.AvailBwBps())
	}
}

// settle solves the pending reschedule: it computes max-min fair rates
// and arms the completion event, with the reserved sequence number, at
// the earliest completion.
func (n *Network) settle() {
	if !n.dirty {
		return
	}
	n.dirty = false
	n.computeRates()
	// Earliest completion among current flows.
	soonest := math.Inf(1)
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		t := f.remaining / f.rate
		if t < soonest {
			soonest = t
		}
	}
	if math.IsInf(soonest, 1) {
		return // no capacity anywhere; stalled until OnCapacityChange
	}
	if n.completion == nil {
		n.completion = sim.NewEvent("netsim/completion", n.onCompletion)
	}
	n.eng.RescheduleReserved(n.completion, sim.Time(soonest), n.seq)
}

// computeRates assigns weighted max-min fair rates via progressive
// filling: each link divides its residual capacity in proportion to the
// unfrozen flows' weights, and the flows with the smallest achievable
// per-weight share freeze first, in flow-ID order. All state lives in
// the network's reusable slices, so a recompute allocates nothing once
// they have grown to the flow set.
func (n *Network) computeRates() {
	if nl := n.numLinks(); len(n.links) < nl {
		n.links = make([]linkState, nl)
	}
	for _, l := range n.touched {
		n.links[l] = linkState{}
	}
	n.touched = n.touched[:0]
	unfrozen := n.unfrozen[:0]
	for _, f := range n.flows {
		f.rate = 0
		if f.stalled {
			continue
		}
		unfrozen = append(unfrozen, f)
		for _, l := range f.path.links() {
			ls := &n.links[l]
			if ls.count == 0 {
				ls.cap = n.capacity(l)
				n.raiseBound(ls.cap)
				n.touched = append(n.touched, l)
			}
			ls.unfrozen += f.weight
			ls.count++
			ls.live++
		}
	}
	for len(unfrozen) > 0 {
		// Bottleneck per-weight share across links carrying unfrozen
		// flows. A link counts as long as one of its flows is unfrozen:
		// its weight total can round to a residual that is not zero
		// when weights are not exactly representable sums, and must
		// not make an idle link look like a bottleneck.
		min := math.Inf(1)
		for _, l := range n.touched {
			ls := &n.links[l]
			if ls.live == 0 {
				continue
			}
			fair := (ls.cap - ls.frozen) / ls.unfrozen
			if fair < min {
				min = fair
			}
		}
		if math.IsInf(min, 1) {
			break
		}
		if min < 0 {
			min = 0
		}
		// Freeze every unfrozen flow traversing a bottleneck link at
		// weight × per-weight share.
		kept := unfrozen[:0]
		for _, f := range unfrozen {
			if n.onBottleneck(f, min) {
				n.freeze(f, min)
			} else {
				kept = append(kept, f)
			}
		}
		if len(kept) == len(unfrozen) {
			// Numerical corner: freeze everything at min.
			for _, f := range kept {
				n.freeze(f, min)
			}
			kept = kept[:0]
		}
		unfrozen = kept
	}
	n.unfrozen = unfrozen[:0]
	if n.queue != nil {
		n.queue.beginEpoch()
		for _, l := range n.touched {
			ls := &n.links[l]
			util := 0.0
			if ls.cap > 0 {
				util = ls.frozen / ls.cap
			}
			n.queue.observeLoad(l, util, ls.count)
		}
	}
}

// onBottleneck reports whether any of f's links offers at most the
// bottleneck per-weight share min.
func (n *Network) onBottleneck(f *flow, min float64) bool {
	for _, l := range f.path.links() {
		ls := &n.links[l]
		if (ls.cap-ls.frozen)/ls.unfrozen <= min*(1+1e-12) {
			return true
		}
	}
	return false
}

// freeze fixes f's rate at weight × the per-weight share and charges it
// to every link on its path.
func (n *Network) freeze(f *flow, share float64) {
	f.rate = share * f.weight
	for _, l := range f.path.links() {
		ls := &n.links[l]
		ls.frozen += f.rate
		ls.unfrozen -= f.weight
		ls.live--
	}
}
