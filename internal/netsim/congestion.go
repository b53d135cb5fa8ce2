package netsim

import (
	"fmt"
	"math/rand"

	"autopipe/internal/sim"
)

// This file adds the congestion-realism layer on top of the fluid
// fair-share allocator:
//
//   - FlowRecord / AddFlowObserver: per-flow completion telemetry — the
//     only signal a real job's transport layer can actually measure, and
//     the input to the internal/bwe bandwidth estimator;
//   - EnableQueueing: bounded per-link drain queues, so contended links
//     build delay over time instead of instantly re-fair-sharing — the
//     delay-gradient signal congestion controllers key on;
//   - CrossTraffic: an on/off background-flow generator, the congestion
//     counterpart of the fault injector.

// FlowRecord describes one completed transfer as the job's own transport
// layer would observe it: bytes moved, when the transfer was requested,
// when the last bit arrived, and the endpoints. It deliberately carries
// no link-capacity ground truth.
type FlowRecord struct {
	ID uint64
	// Name is the flow's name as parts; String renders it.
	Name Name
	// Src/Dst are worker (GPU) ids; SrcServer/DstServer the hosting
	// servers whose NICs the flow traversed.
	Src, Dst             int
	SrcServer, DstServer int
	// Bits is the transfer volume.
	Bits float64
	// Start is when the transfer was requested; End when the last bit
	// arrived. The difference includes propagation and queueing delay —
	// that is the point: rising latency at constant volume is the
	// congestion signal.
	Start, End sim.Time
	// Hops is the route length in links.
	Hops int
	// Background marks cross-traffic flows; a job estimating its own
	// available bandwidth never sees these (it cannot in reality).
	Background bool
}

// Seconds returns the observed wall-clock of the transfer.
func (r FlowRecord) Seconds() float64 { return float64(r.End - r.Start) }

// RateBps returns the achieved end-to-end rate including queueing and
// propagation delay — the throughput sample an estimator consumes.
func (r FlowRecord) RateBps() float64 {
	s := r.Seconds()
	if s <= 0 {
		return 0
	}
	return r.Bits / s
}

// AddFlowObserver registers fn to receive a FlowRecord for every
// completed (non-local) flow, in deterministic flow-ID order, before the
// flow's completion callback fires. Cancelled, dropped and stalled flows
// produce no record.
func (n *Network) AddFlowObserver(fn func(FlowRecord)) {
	n.observers = append(n.observers, fn)
}

// record builds the completion record for a finished flow.
func (n *Network) record(f *flow) FlowRecord {
	return FlowRecord{
		ID:   f.id,
		Name: f.name,
		Src:  f.src, Dst: f.dst,
		SrcServer:  n.cl.GPUs[f.src].Server,
		DstServer:  n.cl.GPUs[f.dst].Server,
		Bits:       f.origBits,
		Start:      f.requested,
		End:        n.eng.Now(),
		Hops:       int(f.path.n),
		Background: f.background,
	}
}

// QueueConfig parametrises the per-link queueing model. The zero value
// of any field selects its default.
type QueueConfig struct {
	// MaxDelaySec bounds a link's queueing delay — the drain-queue
	// depth divided by line rate (default 0.25s). Real switch buffers
	// are bounded; past this point packets drop rather than queue.
	MaxDelaySec float64
	// BuildPerContenderSec is how much queueing delay a saturated link
	// accumulates per second of saturation per extra contending flow
	// (default 0.02 s/s). More simultaneous senders → faster standing
	// queue growth.
	BuildPerContenderSec float64
	// DrainPerSec is how much queueing delay an unsaturated link sheds
	// per second (default 0.5 s/s).
	DrainPerSec float64
	// SaturationUtil is the utilization above which a link's queue
	// builds (default 0.95).
	SaturationUtil float64
}

func (c *QueueConfig) defaults() {
	if c.MaxDelaySec == 0 {
		c.MaxDelaySec = 0.25
	}
	if c.BuildPerContenderSec == 0 {
		c.BuildPerContenderSec = 0.02
	}
	if c.DrainPerSec == 0 {
		c.DrainPerSec = 0.5
	}
	if c.SaturationUtil == 0 {
		c.SaturationUtil = 0.95
	}
}

// queueModel tracks per-link standing-queue delay. The fluid allocator
// never oversubscribes a link, so "queueing" here models what the fluid
// abstraction erases: when a link runs saturated with multiple
// contenders, real senders' in-flight windows overfill the bottleneck
// buffer and every new transfer waits behind it. Delay builds while the
// link is saturated, bounded by the buffer depth, and drains once load
// falls off. State is indexed by dense link id, like the allocator's.
type queueModel struct {
	cfg QueueConfig
	// load is the last fair-share epoch's per-link (utilization, flow
	// count), set for the links in loaded and zero elsewhere; delay the
	// accumulated standing-queue delay in seconds.
	load   []queueLoad
	loaded []int32
	delay  []float64
}

type queueLoad struct {
	util  float64
	count int
}

// EnableQueueing turns on the per-link queueing model. Newly started
// flows wait out their route's current queueing delay before their data
// moves, so flow-completion latency — and therefore every measurement
// derived from it — degrades smoothly under sustained contention. Off by
// default: the pure fluid model keeps analytic timings exact.
func (n *Network) EnableQueueing(cfg QueueConfig) {
	cfg.defaults()
	n.queue = &queueModel{
		cfg:   cfg,
		load:  make([]queueLoad, n.numLinks()),
		delay: make([]float64, n.numLinks()),
	}
}

// QueueDelaySec returns the current queueing delay a src→dst flow would
// wait before injection (telemetry/tests; 0 when queueing is disabled).
func (n *Network) QueueDelaySec(src, dst int) float64 {
	if n.queue == nil {
		return 0
	}
	p := n.route(src, dst)
	return n.queue.routeDelay(&p)
}

// routeDelay sums the queueing delay along a path.
func (q *queueModel) routeDelay(p *path) float64 {
	total := 0.0
	for _, l := range p.links() {
		total += q.delay[l]
	}
	return total
}

// beginEpoch clears the previous epoch's loads ahead of a fair-share
// recompute; links with no active flows simply stay idle and drain.
func (q *queueModel) beginEpoch() {
	for _, l := range q.loaded {
		q.load[l] = queueLoad{}
	}
	q.loaded = q.loaded[:0]
}

// observeLoad records one link's post-allocation state for the epoch.
func (q *queueModel) observeLoad(l int32, util float64, count int) {
	q.load[l] = queueLoad{util: util, count: count}
	q.loaded = append(q.loaded, l)
}

// advance evolves every link's queue by dt seconds of the current epoch:
// saturated links with several contenders build delay up to the bound,
// the rest drain towards zero.
func (q *queueModel) advance(dt float64) {
	for l, d := range q.delay {
		ld := q.load[l]
		if ld.util >= q.cfg.SaturationUtil && ld.count >= 2 {
			d += q.cfg.BuildPerContenderSec * float64(ld.count-1) * dt
			q.delay[l] = min(d, q.cfg.MaxDelaySec)
			continue
		}
		if d != 0 {
			q.delay[l] = max(d-q.cfg.DrainPerSec*dt, 0)
		}
	}
}

// CrossTrafficConfig parametrises a background-traffic generator.
type CrossTrafficConfig struct {
	// Pairs are the (src, dst) worker endpoints whose server NICs the
	// background flows traverse. Each pair runs an independent on/off
	// source.
	Pairs [][2]int
	// BurstBytes is the volume of one background transfer; during an ON
	// period transfers run back-to-back (default 64 MiB).
	BurstBytes int64
	// MeanOnSec / MeanOffSec are the mean durations of the
	// exponentially distributed ON and OFF periods (defaults 2s / 2s).
	// MeanOffSec = 0 with a positive MeanOnSec still alternates; set
	// both to huge values for effectively steady load.
	MeanOnSec, MeanOffSec float64
	// Weight is the flows' fair-share weight (default 1).
	Weight float64
	// Seed drives the on/off process deterministically (default 1).
	Seed int64
}

func (c *CrossTrafficConfig) defaults() {
	if c.BurstBytes == 0 {
		c.BurstBytes = 64 << 20
	}
	if c.MeanOnSec == 0 {
		c.MeanOnSec = 2
	}
	if c.MeanOffSec == 0 {
		c.MeanOffSec = 2
	}
	if c.Weight == 0 {
		c.Weight = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// CrossTraffic injects deterministic on/off background flows — the
// impairment companion to SetFaultInjector. The generated flows contend
// for link capacity like any job flow but are flagged Background in
// completion records, so estimators see only their effect (the job's own
// transfers slowing down), never the cross-traffic itself. That is the
// shared-cluster reality the paper's measurement pipeline must tolerate.
type CrossTraffic struct {
	net *Network
	cfg CrossTrafficConfig
	rng *rand.Rand

	stopped bool
	// BitsInjected totals background volume delivered or in flight
	// (telemetry).
	BitsInjected float64
	// ActiveSources is the number of pairs currently in an ON period.
	ActiveSources int
}

// NewCrossTraffic builds a generator; call Start to begin injecting.
func NewCrossTraffic(net *Network, cfg CrossTrafficConfig) *CrossTraffic {
	cfg.defaults()
	return &CrossTraffic{net: net, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Start schedules every pair's first ON period.
func (x *CrossTraffic) Start() {
	for i, p := range x.cfg.Pairs {
		if p[0] == p[1] {
			continue // no NIC traversed; nothing to contend with
		}
		x.scheduleOn(i, p)
	}
}

// Stop ends injection: no new bursts start; in-flight bursts drain.
func (x *CrossTraffic) Stop() { x.stopped = true }

func (x *CrossTraffic) scheduleOn(i int, p [2]int) {
	off := x.cfg.MeanOffSec * x.rng.ExpFloat64()
	x.net.eng.After(sim.Time(off), fmt.Sprintf("xt%d/on", i), func() {
		if x.stopped {
			return
		}
		x.ActiveSources++
		on := x.cfg.MeanOnSec * x.rng.ExpFloat64()
		until := x.net.eng.Now() + sim.Time(on)
		x.burst(i, p, until)
	})
}

// burst runs back-to-back transfers until the ON period ends, then
// schedules the next cycle.
func (x *CrossTraffic) burst(i int, p [2]int, until sim.Time) {
	if x.stopped || x.net.eng.Now() >= until {
		x.ActiveSources--
		if !x.stopped {
			x.scheduleOn(i, p)
		}
		return
	}
	x.BitsInjected += float64(x.cfg.BurstBytes) * 8
	x.net.startFlow(p[0], p[1], x.cfg.BurstBytes, x.cfg.Weight,
		Namef("xt%d/burst", i), true, func() {
			x.burst(i, p, until)
		})
}
