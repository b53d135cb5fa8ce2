package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"autopipe/internal/cluster"
	"autopipe/internal/sim"
)

func newNet(nicGbps float64) (*sim.Engine, *cluster.Cluster, *Network) {
	eng := sim.NewEngine()
	cl := cluster.Testbed(cluster.Gbps(nicGbps))
	return eng, cl, New(eng, cl)
}

func TestSingleFlowTime(t *testing.T) {
	eng, _, net := newNet(10)
	var doneAt sim.Time = -1
	// 1.25e9 bytes = 1e10 bits over 10 Gbps = 1 s. GPUs 0 and 2 are on
	// different servers.
	net.StartFlow(0, 2, 1.25e9, Label("t"), func() { doneAt = eng.Now() })
	eng.RunAll()
	if math.Abs(float64(doneAt)-1.0) > 1e-9 {
		t.Fatalf("flow finished at %v, want 1.0", doneAt)
	}
}

func TestIntraServerFlowFaster(t *testing.T) {
	eng, _, net := newNet(10)
	var intra, inter sim.Time
	net.StartFlow(0, 1, 1e9, Label("intra"), func() { intra = eng.Now() })
	eng.RunAll()
	eng2 := sim.NewEngine()
	net2 := New(eng2, cluster.Testbed(cluster.Gbps(10)))
	net2.StartFlow(0, 2, 1e9, Label("inter"), func() { inter = eng2.Now() })
	eng2.RunAll()
	if intra >= inter {
		t.Fatalf("intra %v not faster than inter %v", intra, inter)
	}
}

func TestTwoFlowsShareLink(t *testing.T) {
	eng, _, net := newNet(10)
	var first, second sim.Time
	// Both flows leave server 0 (GPU 0 and GPU 1) to distinct servers;
	// they share the server-0 uplink, so each gets 5 Gbps.
	net.StartFlow(0, 2, 1.25e9, Label("a"), func() { first = eng.Now() })
	net.StartFlow(1, 4, 1.25e9, Label("b"), func() { second = eng.Now() })
	eng.RunAll()
	if math.Abs(float64(first)-2.0) > 1e-6 || math.Abs(float64(second)-2.0) > 1e-6 {
		t.Fatalf("shared flows finished at %v, %v; want 2.0 each", first, second)
	}
}

func TestFlowCompletionFreesBandwidth(t *testing.T) {
	eng, _, net := newNet(10)
	var bigDone sim.Time
	// Small flow shares the uplink for its lifetime; after it ends the
	// big flow gets the full link.
	net.StartFlow(0, 2, 1.25e9/2, Label("small"), nil) // 0.5e10 bits
	net.StartFlow(1, 4, 1.25e9, Label("big"), func() { bigDone = eng.Now() })
	eng.RunAll()
	// small: shares at 5G until done at t=1 (5e9 bits at 5e9 b/s).
	// big: t=1 has 5e9 bits left, now at 10G → finishes at 1.5.
	if math.Abs(float64(bigDone)-1.5) > 1e-6 {
		t.Fatalf("big flow finished at %v, want 1.5", bigDone)
	}
}

func TestCapacityChangeMidFlow(t *testing.T) {
	eng, cl, net := newNet(10)
	var doneAt sim.Time
	net.StartFlow(0, 2, 1.25e9, Label("x"), func() { doneAt = eng.Now() })
	eng.Schedule(0.5, "halve", func() {
		cl.SetNICBandwidth(cluster.Gbps(5))
		net.OnCapacityChange()
	})
	eng.RunAll()
	// 0.5s at 10G moves half; remaining 5e9 bits at 5G takes 1s → 1.5 total.
	if math.Abs(float64(doneAt)-1.5) > 1e-6 {
		t.Fatalf("flow finished at %v, want 1.5", doneAt)
	}
}

func TestSameWorkerFlowIsLocal(t *testing.T) {
	eng, _, net := newNet(10)
	done := false
	f := net.StartFlow(3, 3, 1e9, Label("local"), func() { done = true })
	if f != 0 {
		t.Fatal("same-worker transfer should not create a network flow")
	}
	eng.RunAll()
	if !done {
		t.Fatal("local flow callback never fired")
	}
}

func TestZeroByteFlow(t *testing.T) {
	eng, _, net := newNet(10)
	done := false
	net.StartFlow(0, 2, 0, Label("zero"), func() { done = true })
	eng.RunAll()
	if !done {
		t.Fatal("zero-byte flow callback never fired")
	}
}

func TestCancelFlow(t *testing.T) {
	eng, _, net := newNet(10)
	fired := false
	f := net.StartFlow(0, 2, 1e12, Label("doomed"), func() { fired = true })
	eng.Schedule(0.1, "cancel", func() { net.CancelFlow(f) })
	eng.RunAll()
	if fired {
		t.Fatal("canceled flow fired its callback")
	}
	if net.ActiveFlows() != 0 {
		t.Fatal("canceled flow still active")
	}
}

func TestPSSyncCompletesAndTiming(t *testing.T) {
	eng, _, net := newNet(10)
	var doneAt sim.Time = -1
	// Workers 0,2,4 on three distinct servers; PS = worker 0.
	// Push: 2 flows into server0 downlink, each 1.25e9 B = 1e10 bits
	// sharing 10G downlink → 2s. Pull: 2 flows out of server0 uplink → 2s.
	net.Sync(ParameterServer, []int{0, 2, 4}, 1.25e9, Label("ps"), func() { doneAt = eng.Now() })
	eng.RunAll()
	if math.Abs(float64(doneAt)-4.0) > 1e-6 {
		t.Fatalf("PS sync finished at %v, want 4.0", doneAt)
	}
}

func TestRingAllReduceCompletesAndTiming(t *testing.T) {
	eng, _, net := newNet(10)
	var doneAt sim.Time = -1
	// Ring over 0,2,4 (three servers): chunk = bytes/3, 4 steps.
	// Each step: three disjoint server pairs, each chunk at 10G.
	bytes := int64(3.75e9) // chunk 1.25e9 B = 1e10 bits → 1 s/step
	net.Sync(RingAllReduce, []int{0, 2, 4}, bytes, Label("ring"), func() { doneAt = eng.Now() })
	eng.RunAll()
	if math.Abs(float64(doneAt)-4.0) > 1e-6 {
		t.Fatalf("ring all-reduce finished at %v, want 4.0 (4 steps × 1s)", doneAt)
	}
}

func TestSyncSingleWorkerNoop(t *testing.T) {
	eng, _, net := newNet(10)
	done := 0
	net.Sync(ParameterServer, []int{3}, 1e9, Label("solo"), func() { done++ })
	net.Sync(RingAllReduce, []int{3}, 1e9, Label("solo"), func() { done++ })
	eng.RunAll()
	if done != 2 {
		t.Fatalf("single-worker syncs fired %d callbacks, want 2", done)
	}
	if eng.Now() != 0 {
		t.Fatalf("single-worker sync consumed time: %v", eng.Now())
	}
}

func TestEstimateSyncTimeOrdering(t *testing.T) {
	_, _, net := newNet(10)
	// For the same volume, ring moves 2(N-1)/N of the bytes per worker
	// link vs PS's 2× at the server — on equal links ring is faster for
	// large N. Sanity: both positive, zero for single worker.
	if net.EstimateSyncTime(ParameterServer, []int{0}, 1e9) != 0 {
		t.Fatal("single-worker estimate must be 0")
	}
	ps := net.EstimateSyncTime(ParameterServer, []int{0, 2, 4, 6}, 1e9)
	ring := net.EstimateSyncTime(RingAllReduce, []int{0, 2, 4, 6}, 1e9)
	if ps <= 0 || ring <= 0 {
		t.Fatalf("estimates not positive: ps=%v ring=%v", ps, ring)
	}
	if ring >= ps {
		t.Fatalf("ring estimate %v should beat PS %v on uniform links", ring, ps)
	}
}

func TestParseSyncScheme(t *testing.T) {
	if s, err := ParseSyncScheme("PS"); err != nil || s != ParameterServer {
		t.Fatal("ParseSyncScheme(PS) failed")
	}
	if s, err := ParseSyncScheme("ring"); err != nil || s != RingAllReduce {
		t.Fatal("ParseSyncScheme(ring) failed")
	}
	if _, err := ParseSyncScheme("carrier-pigeon"); err == nil {
		t.Fatal("ParseSyncScheme accepted junk")
	}
}

// withinCapacity reports whether the assigned rates keep every link's
// load within its current capacity.
func withinCapacity(net *Network) bool {
	load := make([]float64, net.numLinks())
	for _, fl := range net.flows {
		for _, l := range fl.path.links() {
			load[l] += fl.rate
		}
	}
	for l, tot := range load {
		if tot > net.capacity(int32(l))*(1+1e-9) {
			return false
		}
	}
	return true
}

// Property: max-min rates never oversubscribe a link and the allocation
// is work-conserving for a single bottleneck.
func TestQuickFairShareConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		eng, cl, net := newNet(10)
		nFlows := 1 + r.Intn(6)
		for i := 0; i < nFlows; i++ {
			src := r.Intn(cl.NumGPUs())
			dst := r.Intn(cl.NumGPUs())
			if src == dst {
				dst = (dst + 1) % cl.NumGPUs()
			}
			net.StartFlow(src, dst, int64(1e8+r.Int63n(1e9)), Label("q"), nil)
		}
		// After scheduling, rates are assigned. Verify no link exceeded.
		if !withinCapacity(net) {
			return false
		}
		eng.RunAll()
		return net.ActiveFlows() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: total delivered volume equals total injected volume.
func TestQuickVolumeConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		eng, cl, net := newNet(25)
		var injected float64
		n := 1 + r.Intn(8)
		for i := 0; i < n; i++ {
			src := r.Intn(cl.NumGPUs())
			dst := (src + 1 + r.Intn(cl.NumGPUs()-1)) % cl.NumGPUs()
			b := int64(1e7 + r.Int63n(1e8))
			if src != dst {
				injected += float64(b * 8)
				net.StartFlow(src, dst, b, Label("v"), nil)
			}
		}
		eng.RunAll()
		return math.Abs(net.TotalBitsDelivered-injected) < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicCompletionOrder(t *testing.T) {
	run := func() []string {
		eng, _, net := newNet(10)
		var order []string
		for i, pair := range [][2]int{{0, 2}, {1, 4}, {2, 6}, {3, 8}} {
			name := string(rune('a' + i))
			net.StartFlow(pair[0], pair[1], 1e9, Label(name), func() { order = append(order, name) })
		}
		eng.RunAll()
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic completion count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order: %v vs %v", a, b)
		}
	}
}

func TestRackUplinkOversubscription(t *testing.T) {
	// Two racks, oversubscribed 4:1 core: four cross-rack flows share
	// one 10G uplink while four intra-rack flows run at NIC speed.
	mk := func(crossRack bool) sim.Time {
		eng := sim.NewEngine()
		cl := cluster.NewCluster(cluster.Config{
			Servers: 8, GPUsPerServer: 1, GPUType: cluster.P100,
			NICBwBps: cluster.Gbps(10),
			Racks:    2, RackUplinkBps: cluster.Gbps(10),
		})
		net := New(eng, cl)
		var last sim.Time
		// Servers 0,2,4,6 → rack 0; 1,3,5,7 → rack 1 (round-robin).
		for i := 0; i < 4; i++ {
			src := 2 * i // rack 0
			dst := 2*((i+1)%4) + 1
			if !crossRack {
				dst = 2 * ((i + 1) % 4) // stay in rack 0
			}
			net.StartFlow(src, dst, 1.25e9, Label("rk"), func() { last = eng.Now() })
		}
		eng.RunAll()
		return last
	}
	intra := mk(false)
	cross := mk(true)
	if float64(cross) < float64(intra)*3 {
		t.Fatalf("oversubscribed cross-rack flows (%v) not ~4x slower than intra-rack (%v)", cross, intra)
	}
}

func TestSingleSwitchHasNoRackLinks(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.Testbed(cluster.Gbps(10))
	net := New(eng, cl)
	var done sim.Time
	net.StartFlow(0, 2, 1.25e9, Label("flat"), func() { done = eng.Now() })
	eng.RunAll()
	if math.Abs(float64(done)-1.0) > 1e-6 {
		t.Fatalf("single-switch flow took %v, want 1.0", done)
	}
}

func TestRackPairBandwidth(t *testing.T) {
	cl := cluster.NewCluster(cluster.Config{
		Servers: 4, GPUsPerServer: 1, GPUType: cluster.P100,
		NICBwBps: cluster.Gbps(40),
		Racks:    2, RackUplinkBps: cluster.Gbps(10),
	})
	// Server racks: 0→r0, 1→r1, 2→r0, 3→r1.
	if got := cl.PairBandwidth(0, 2); got != cluster.Gbps(40) {
		t.Fatalf("same-rack pair bw = %v, want 40G", got)
	}
	if got := cl.PairBandwidth(0, 1); got != cluster.Gbps(10) {
		t.Fatalf("cross-rack pair bw = %v, want uplink 10G", got)
	}
}

func TestWeightedSharing(t *testing.T) {
	eng, _, net := newNet(10)
	var hiDone, loDone sim.Time
	// Two flows share server-0's uplink; the weight-3 flow gets 7.5G,
	// the weight-1 flow 2.5G.
	net.StartWeightedFlow(0, 2, 1.25e9, 3, Label("hi"), func() { hiDone = eng.Now() })
	net.StartWeightedFlow(1, 4, 1.25e9, 1, Label("lo"), func() { loDone = eng.Now() })
	eng.RunAll()
	// hi: 1e10 bits at 7.5G → 4/3 s. After it ends, lo has
	// 1e10 − 2.5e9·4/3 = 6.67e9 bits at full 10G → +0.667s ⇒ 2.0s.
	if math.Abs(float64(hiDone)-4.0/3) > 1e-6 {
		t.Fatalf("high-weight flow finished at %v, want 1.333", hiDone)
	}
	if math.Abs(float64(loDone)-2.0) > 1e-6 {
		t.Fatalf("low-weight flow finished at %v, want 2.0", loDone)
	}
}

func TestWeightZeroTreatedAsOne(t *testing.T) {
	eng, _, net := newNet(10)
	var done sim.Time
	net.StartWeightedFlow(0, 2, 1.25e9, 0, Label("z"), func() { done = eng.Now() })
	eng.RunAll()
	if math.Abs(float64(done)-1.0) > 1e-6 {
		t.Fatalf("zero-weight flow finished at %v, want 1.0", done)
	}
}

// Property: weighted allocation still conserves link capacity.
func TestQuickWeightedConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		eng, cl, net := newNet(10)
		for i := 0; i < 1+r.Intn(6); i++ {
			src := r.Intn(cl.NumGPUs())
			dst := (src + 1 + r.Intn(cl.NumGPUs()-1)) % cl.NumGPUs()
			net.StartWeightedFlow(src, dst, int64(1e8+r.Int63n(1e9)), 0.5+4*r.Float64(), Label("w"), nil)
		}
		if !withinCapacity(net) {
			return false
		}
		eng.RunAll()
		return net.ActiveFlows() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPerHopLatency(t *testing.T) {
	eng, _, net := newNet(10)
	net.PerHopLatencySec = 0.1
	var done sim.Time
	// Cross-server flow: 2 hops (src up + dst down) → 0.2s latency
	// before the 1.0s transfer.
	net.StartFlow(0, 2, 1.25e9, Label("lat"), func() { done = eng.Now() })
	eng.RunAll()
	if math.Abs(float64(done)-1.2) > 1e-6 {
		t.Fatalf("flow with latency finished at %v, want 1.2", done)
	}
}

func TestPerHopLatencyPenalisesChattyRing(t *testing.T) {
	run := func(lat float64) float64 {
		eng, _, net := newNet(10)
		net.PerHopLatencySec = lat
		var done sim.Time
		net.Sync(RingAllReduce, []int{0, 2, 4, 6}, 4e8, Label("chatty"), func() { done = eng.Now() })
		eng.RunAll()
		return float64(done)
	}
	if base, latency := run(0), run(0.05); latency <= base {
		t.Fatal("per-hop latency did not slow the barriered ring")
	}
}

// oracleRates is the map-based progressive filling that computeRates
// replaced, kept as a test oracle: link state in a map keyed by link id
// and the unfrozen flows in a map keyed by flow ID, both walked in Go's
// randomized map order. It returns each active flow's rate by ID.
func oracleRates(n *Network) map[uint64]float64 {
	type linkState struct {
		cap, frozen, unfrozen float64
		count                 int
	}
	rates := make(map[uint64]float64, len(n.flows))
	links := make(map[int32]*linkState)
	unfrozen := make(map[uint64]*flow, len(n.flows))
	for _, f := range n.flows {
		rates[f.id] = 0
		if f.stalled {
			continue
		}
		unfrozen[f.id] = f
		for _, l := range f.path.links() {
			if _, ok := links[l]; !ok {
				links[l] = &linkState{cap: n.capacity(l)}
			}
			links[l].unfrozen += f.weight
			links[l].count++
		}
	}
	freeze := func(id uint64, f *flow, min float64) {
		rates[id] = min * f.weight
		for _, l := range f.path.links() {
			links[l].frozen += rates[id]
			links[l].unfrozen -= f.weight
		}
		delete(unfrozen, id)
	}
	for len(unfrozen) > 0 {
		min := math.Inf(1)
		for _, ls := range links {
			if ls.unfrozen <= 0 {
				continue
			}
			if fair := (ls.cap - ls.frozen) / ls.unfrozen; fair < min {
				min = fair
			}
		}
		if math.IsInf(min, 1) {
			break
		}
		if min < 0 {
			min = 0
		}
		progressed := false
		for id, f := range unfrozen {
			for _, l := range f.path.links() {
				ls := links[l]
				if (ls.cap-ls.frozen)/ls.unfrozen <= min*(1+1e-12) {
					freeze(id, f, min)
					progressed = true
					break
				}
			}
		}
		if !progressed {
			for id, f := range unfrozen {
				freeze(id, f, min)
			}
		}
	}
	return rates
}

// twoRackNet is a 6-server, 2-GPU-per-server cluster split over two
// racks whose 15G core uplinks are shared by cross-rack traffic.
func twoRackNet() (*sim.Engine, *cluster.Cluster, *Network) {
	eng := sim.NewEngine()
	cl := cluster.NewCluster(cluster.Config{
		Servers: 6, GPUsPerServer: 2, GPUType: cluster.P100,
		NICBwBps: cluster.Gbps(10), Racks: 2, RackUplinkBps: cluster.Gbps(15),
	})
	return eng, cl, New(eng, cl)
}

// randomFlows loads a two-rack network with uneven NIC capacities and
// 1–16 random flows, about one in eight of them stalled, drawing each
// flow's weight from weight, and settles their rates.
func randomFlows(r *rand.Rand, weight func() float64) *Network {
	_, cl, net := twoRackNet()
	for _, s := range cl.Servers {
		s.ExtShare = 0.6 * r.Float64()
	}
	net.SetFaultInjector(func(int, int, Name) FlowFault {
		if r.Intn(8) == 0 {
			return FaultStall
		}
		return FaultNone
	})
	for i, nf := 0, 1+r.Intn(16); i < nf; i++ {
		src := r.Intn(cl.NumGPUs())
		dst := (src + 1 + r.Intn(cl.NumGPUs()-1)) % cl.NumGPUs()
		net.StartWeightedFlow(src, dst, int64(1e8+r.Int63n(1e9)), weight(), Label("o"), nil)
	}
	// Rates are solved at the end of the instant; read them now.
	net.settle()
	return net
}

// TestComputeRatesMatchesMapOracle: over randomized two-rack flow sets,
// the dense solver gives weight-1 flows bit-identical rates to the
// map-based oracle, and weighted flows rates within 1e-12 relative:
// weighted flows now freeze in ID order, where the oracle summed their
// rates in map order. The weights are sums of halves (the production
// weights 1 and 4 among them), whose totals the oracle tracks exactly;
// for other weights the oracle's result depends on its map order (see
// TestQuickWeightedMaxMinFair).
func TestComputeRatesMatchesMapOracle(t *testing.T) {
	halves := []float64{0.5, 1, 1.5, 2, 3, 4}
	for seed := int64(1); seed <= 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		weighted := seed%2 == 0
		net := randomFlows(r, func() float64 {
			if weighted {
				return halves[r.Intn(len(halves))]
			}
			return 1
		})
		want := oracleRates(net)
		for _, f := range net.flows {
			got, exp := f.rate, want[f.id]
			if weighted {
				if math.Abs(got-exp) > 1e-12*math.Abs(exp) {
					t.Fatalf("seed %d: weighted flow %d rate %v, oracle %v", seed, f.id, got, exp)
				}
			} else if math.Float64bits(got) != math.Float64bits(exp) {
				t.Fatalf("seed %d: flow %d rate %v, oracle %v (bitwise)", seed, f.id, got, exp)
			}
		}
	}
}

// Property: with arbitrary weights the allocation is weighted max-min
// fair. Every running flow crosses a saturated link on which no flow
// gets a larger per-weight share, and no link is oversubscribed. This
// needs a link whose flows have all frozen to stop constraining even
// when its unfrozen weight total rounds to a residual instead of zero;
// oracleRates does not, and fails here.
func TestQuickWeightedMaxMinFair(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		net := randomFlows(r, func() float64 { return 0.25 + 4*r.Float64() })
		if !withinCapacity(net) {
			t.Fatalf("seed %d: a link is oversubscribed", seed)
		}
		load := make([]float64, net.numLinks())
		share := make([]float64, net.numLinks()) // largest per-weight share
		for _, f := range net.flows {
			for _, l := range f.path.links() {
				load[l] += f.rate
				share[l] = math.Max(share[l], f.rate/f.weight)
			}
		}
		for _, f := range net.flows {
			if f.stalled {
				continue
			}
			bottlenecked := false
			for _, l := range f.path.links() {
				saturated := load[l] >= net.capacity(l)*(1-1e-9)
				if saturated && f.rate/f.weight >= share[l]*(1-1e-9) {
					bottlenecked = true
				}
			}
			if !bottlenecked {
				t.Fatalf("seed %d: flow %d at %v has no bottleneck link", seed, f.id, f.rate)
			}
		}
	}
}

// congestedRun drives weighted job transfers against weighted on/off
// cross-traffic over a two-rack fabric with per-link queueing, and
// returns every completion record in delivery order.
func congestedRun() []FlowRecord {
	eng, cl, net := twoRackNet()
	net.EnableQueueing(QueueConfig{})
	var recs []FlowRecord
	net.AddFlowObserver(func(r FlowRecord) { recs = append(recs, r) })
	xt := NewCrossTraffic(net, CrossTrafficConfig{
		Pairs:      [][2]int{{0, 3}, {2, 5}, {4, 9}, {6, 1}},
		BurstBytes: 40 << 20, MeanOnSec: 0.3, MeanOffSec: 0.2, Weight: 2.7, Seed: 7,
	})
	xt.Start()
	weights := []float64{1, 0.7, 3.1, 1.9, 0.35}
	var chain func(i, left int)
	chain = func(i, left int) {
		if left == 0 {
			return
		}
		src := (3 * i) % cl.NumGPUs()
		dst := (src + 5 + i%4) % cl.NumGPUs()
		net.StartWeightedFlow(src, dst, int64(5e7+1e7*(i%7)), weights[i%len(weights)], Label("job"), func() {
			chain(i+1, left-1)
		})
	}
	for i := 0; i < 6; i++ {
		chain(7*i, 25)
	}
	eng.Run(30)
	xt.Stop()
	eng.RunAll()
	return recs
}

// TestWeightedCongestionDeterministic: weighted job flows, weighted
// cross-traffic and queueing repeated 50 times give one FlowRecord
// stream, completion times compared as float64 bits.
func TestWeightedCongestionDeterministic(t *testing.T) {
	ref := congestedRun()
	if len(ref) < 100 {
		t.Fatalf("scenario produced only %d records", len(ref))
	}
	for run := 1; run < 50; run++ {
		got := congestedRun()
		if len(got) != len(ref) {
			t.Fatalf("run %d: %d records, want %d", run, len(got), len(ref))
		}
		for i := range ref {
			a, b := ref[i], got[i]
			if a.ID != b.ID || a.Name != b.Name || a.Src != b.Src || a.Dst != b.Dst ||
				math.Float64bits(float64(a.Start)) != math.Float64bits(float64(b.Start)) ||
				math.Float64bits(float64(a.End)) != math.Float64bits(float64(b.End)) {
				t.Fatalf("run %d: record %d = %+v, first run %+v", run, i, b, a)
			}
		}
	}
}

// TestRescheduleZeroAllocs: once the solver's scratch has grown, a
// reschedule and its settle over an unchanged flow set — two racks,
// weighted and stalled flows, queueing on — allocate nothing.
func TestRescheduleZeroAllocs(t *testing.T) {
	_, cl, net := twoRackNet()
	net.EnableQueueing(QueueConfig{})
	stall := true
	net.SetFaultInjector(func(int, int, Name) FlowFault {
		if stall {
			stall = false
			return FaultStall
		}
		return FaultNone
	})
	for i := 0; i < 10; i++ {
		src := i % cl.NumGPUs()
		dst := (src + 3) % cl.NumGPUs()
		net.StartWeightedFlow(src, dst, 1e9, 1+float64(i%3), Label("z"), nil)
	}
	recompute := func() {
		net.reschedule()
		net.settle()
	}
	recompute()
	if n := testing.AllocsPerRun(200, recompute); n != 0 {
		t.Fatalf("reschedule + settle allocates %v times per recompute, want 0", n)
	}
	if net.ActiveFlows() != 10 {
		t.Fatalf("%d active flows, want 10", net.ActiveFlows())
	}
}
