package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"autopipe/internal/sim"
)

// eagerNet drives a Network through the eager algorithm the end-of-
// instant settle replaced: every reschedule solves the max-min rates
// and re-arms the completion event at once. Its entry points repeat the
// production ones with reschedule swapped for the eager one, so the
// parity test below compares the two on identical scripts.
type eagerNet struct {
	*Network
	completion *sim.Event
}

func (n *eagerNet) StartWeightedFlow(src, dst int, bytes int64, weight float64, name Name, done func()) FlowID {
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
	f.done, f.requested = done, n.eng.Now()
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

func (n *eagerNet) inject(f *flow) bool {
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

func (n *eagerNet) CancelFlow(id FlowID) {
	f := n.lookup(id)
	if f == nil {
		return
	}
	if f.waiting {
		n.eng.Cancel(f.prop)
		n.release(f)
		return
	}
	for i, g := range n.flows {
		if g == f {
			n.advance()
			n.flows = append(n.flows[:i], n.flows[i+1:]...)
			n.release(f)
			n.reschedule()
			return
		}
	}
}

func (n *eagerNet) OnCapacityChange() {
	n.advance()
	n.reschedule()
}

func (n *eagerNet) StallMatching(substr string) int {
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

// reschedule is the eager solve: finish drained flows, then recompute
// the rates and re-arm the completion event, every time.
func (n *eagerNet) reschedule() {
	n.eng.Cancel(n.completion)
	now := float64(n.eng.Now())
	var finished, active []*flow
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
		n.flows = active
		for _, f := range finished {
			n.TotalBitsDelivered += f.origBits
		}
		for _, f := range finished {
			rec := n.record(f)
			for _, obs := range n.observers {
				obs(rec)
			}
		}
		for _, f := range finished {
			if f.done != nil {
				f.done()
			}
		}
		for _, f := range finished {
			n.release(f)
		}
		n.reschedule()
		return
	}
	if len(n.flows) == 0 {
		return
	}
	n.computeRates()
	soonest := math.Inf(1)
	for _, f := range n.flows {
		if f.rate > 0 {
			soonest = math.Min(soonest, f.remaining/f.rate)
		}
	}
	if math.IsInf(soonest, 1) {
		return
	}
	if n.completion == nil {
		n.completion = n.eng.After(sim.Time(soonest), "netsim/completion", func() {
			n.advance()
			n.reschedule()
		})
		return
	}
	n.eng.Reschedule(n.completion, sim.Time(soonest))
}

// flowOps is what a parity script drives: the production Network or
// its eager twin.
type flowOps interface {
	StartWeightedFlow(src, dst int, bytes int64, weight float64, name Name, done func()) FlowID
	CancelFlow(FlowID)
	OnCapacityChange()
	StallMatching(string) int
}

// settleScript runs one seeded random script against a fresh two-rack
// network, driven eagerly or through the end-of-instant settle, and
// returns everything observable: completion and marker events in firing
// order with their times, every FlowRecord, the bits delivered, the
// events fired and the final clock. Many operations share each instant;
// callbacks start flows and schedule zero-delay events; the script
// starts at base, which may lie past the settle's exactness bound.
func settleScript(seed int64, base float64, eager bool) []string {
	r := rand.New(rand.NewSource(seed))
	eng, cl, net := twoRackNet()
	var ops flowOps = net
	if eager {
		ops = &eagerNet{Network: net}
	}
	if r.Intn(2) == 0 {
		net.PerHopLatencySec = 1e-4 * float64(1+r.Intn(3))
	}
	if r.Intn(2) == 0 {
		net.EnableQueueing(QueueConfig{BuildPerContenderSec: 0.05})
	}
	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", eng.Now())+fmt.Sprintf(format, args...))
	}
	net.AddFlowObserver(func(rec FlowRecord) {
		logf("record %d %s %d→%d %v %v %v", rec.ID, rec.Name, rec.Src, rec.Dst, rec.Bits, rec.Start, rec.End)
	})
	var ids []FlowID
	nextName := 0
	var start func(depth int)
	start = func(depth int) {
		src := r.Intn(cl.NumGPUs())
		dst := (src + 1 + r.Intn(cl.NumGPUs()-1)) % cl.NumGPUs()
		if r.Intn(10) == 0 {
			dst = src // a local copy
		}
		k := nextName
		nextName++
		weights := []float64{1, 4, 0.7, 2.5}
		id := ops.StartWeightedFlow(src, dst, 1e5+r.Int63n(3e7), weights[r.Intn(len(weights))],
			Namef("f%d/g%d", k, k%5), func() {
				logf("done f%d", k)
				if depth < 3 && r.Intn(3) > 0 {
					start(depth + 1)
				}
				if r.Intn(4) == 0 {
					eng.After(0, "marker", func() { logf("zero-delay after f%d", k) })
				}
			})
		ids = append(ids, id)
	}
	op := func() {
		switch x := r.Intn(12); {
		case x < 6:
			start(0)
		case x < 8:
			if len(ids) > 0 {
				ops.CancelFlow(ids[r.Intn(len(ids))])
			}
		case x == 8:
			// Empty the flow set: the queue model keeps the loads of
			// the last set solved.
			for _, id := range ids {
				ops.CancelFlow(id)
			}
		case x < 11:
			cl.Servers[r.Intn(len(cl.Servers))].ExtShare = 0.7 * r.Float64()
			ops.OnCapacityChange()
		default:
			logf("stalled %d", ops.StallMatching(fmt.Sprintf("/g%d", r.Intn(5))))
		}
	}
	// Twenty instants, a few milliseconds apart, each with up to six
	// operations and a marker event between them.
	for i := 0; i < 20; i++ {
		at := sim.Time(base + 0.004*float64(i))
		n := 1 + r.Intn(6)
		eng.Schedule(at, "script", func() {
			for k := 0; k < n; k++ {
				op()
			}
		})
		eng.Schedule(at, "marker", func() { logf("marker %d", i) })
	}
	// Drain, then cancel whatever is stalled so the run can end.
	eng.RunAll()
	for _, id := range ids {
		ops.CancelFlow(id)
	}
	eng.RunAll()
	log = append(log, fmt.Sprintf("bits %v fired %d now %v active %d",
		net.TotalBitsDelivered, eng.Fired(), eng.Now(), net.ActiveFlows()))
	return log
}

// TestSettleMatchesEagerOracle: random scripts of flow starts, cancels,
// capacity changes and stalls — many per instant, callbacks starting
// flows and zero-delay events, hop latency and queueing — give the
// same completion order and times, FlowRecords, bits delivered, fired
// events and interleaving with other events as the eager solve, below
// the exactness bound, across it and beyond it.
func TestSettleMatchesEagerOracle(t *testing.T) {
	// The two-rack fabric's largest capacity is its 100 Gbps intra-server
	// path, so deferring ends at 5e14 / 1e11 = 5000 s, and exactness
	// would end at 10⁴ s. At 10¹² s the drained-flow threshold is
	// megabits and completions round onto the current instant.
	for _, base := range []float64{0, 3.7, 4999.95, 7500, 2.5e4, 1e12} {
		for seed := int64(1); seed <= 150; seed++ {
			want := settleScript(seed, base, true)
			got := settleScript(seed, base, false)
			if len(want) < 10 {
				t.Fatalf("base %v seed %d: script logged only %d lines", base, seed, len(want))
			}
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("base %v seed %d: line %d\n got %s\nwant %s", base, seed, i, got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("base %v seed %d: %d lines, eager oracle %d", base, seed, len(got), len(want))
			}
		}
	}
}

// TestSettleOncePerInstant: a burst of flow starts at one instant
// leaves the solve pending (no completion armed) until the instant
// ends, and the next step settles it before the clock moves.
func TestSettleOncePerInstant(t *testing.T) {
	eng, cl, net := twoRackNet()
	for i := 0; i < 8; i++ {
		net.StartFlow(i%cl.NumGPUs(), (i+3)%cl.NumGPUs(), 1e7, Label("burst"), nil)
	}
	if !net.dirty || net.completion != nil {
		t.Fatal("starts at one instant solved before the instant ended")
	}
	eng.Step()
	if net.dirty || net.completion == nil || eng.Now() <= 0 {
		t.Fatalf("first step did not settle before advancing (dirty %v, now %v)", net.dirty, eng.Now())
	}
}

// tieScript starts one flow on an idle 10 Gbps path, with a marker
// event due at exactly its completion time scheduled before the start
// and another after it, and logs the firing order.
func tieScript(eager bool) []string {
	eng, _, net := twoRackNet()
	var ops flowOps = net
	if eager {
		ops = &eagerNet{Network: net}
	}
	var log []string
	const bytes = 12345678
	due := sim.Time(float64(bytes*8) / 1e10)
	eng.Schedule(1, "script", func() {
		eng.After(due, "marker", func() { log = append(log, fmt.Sprintf("before %v", eng.Now())) })
		// Workers 0 and 2 sit on two servers of one rack: NIC up, NIC down.
		ops.StartWeightedFlow(0, 2, bytes, 1, Label("tie"), func() {
			log = append(log, fmt.Sprintf("done %v", eng.Now()))
		})
		eng.After(due, "marker", func() { log = append(log, fmt.Sprintf("after %v", eng.Now())) })
	})
	eng.RunAll()
	return log
}

// TestSettleKeepsEagerTieOrder: the completion event, armed at the end
// of the instant, still fires after an equal-time event scheduled before
// the flow started and before one scheduled after it — the order an
// eager re-arm at the start gave it.
func TestSettleKeepsEagerTieOrder(t *testing.T) {
	want := tieScript(true)
	if len(want) != 3 || !strings.HasPrefix(want[0], "before") || !strings.HasPrefix(want[1], "done") ||
		want[0][len("before"):] != want[1][len("done"):] {
		t.Fatalf("eager oracle does not tie: %q", want)
	}
	if got := tieScript(false); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("firing order %q, eager oracle %q", got, want)
	}
}
