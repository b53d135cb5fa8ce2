package netsim

import "testing"

// TestStaleFlowIDIsNoop: flow B reuses finished flow A's struct, and a
// late CancelFlow(A) must not touch B. A handle that named the struct
// alone would cancel B here.
func TestStaleFlowIDIsNoop(t *testing.T) {
	eng, _, net := newNet(10)
	aDone := false
	a := net.StartFlow(0, 2, 1e6, Label("a"), func() { aDone = true })
	eng.RunAll()
	if !aDone {
		t.Fatal("flow A never finished")
	}
	bDone := false
	b := net.StartFlow(0, 2, 1e6, Label("b"), func() { bDone = true })
	if len(net.slab) != 1 {
		t.Fatalf("%d flow structs made, want B to reuse A's", len(net.slab))
	}
	if a == b {
		t.Fatal("B was issued A's handle")
	}
	net.CancelFlow(a)
	if net.ActiveFlows() != 1 {
		t.Fatal("cancelling A's stale handle removed B")
	}
	eng.RunAll()
	if !bDone {
		t.Fatal("flow B never finished after a stale cancel")
	}
	net.CancelFlow(b) // stale once finished, too
	net.CancelFlow(0)
}

// TestCancelDelayedFlow: a flow waiting out its per-hop latency can be
// cancelled before injection. It must never enter the allocator, never
// deliver a bit and never fire its callback.
func TestCancelDelayedFlow(t *testing.T) {
	eng, _, net := newNet(10)
	net.PerHopLatencySec = 0.01 // 2 hops: injected at t = 0.02
	fired := false
	id := net.StartFlow(0, 2, 1.25e9, Label("delayed"), func() { fired = true })
	if id == 0 {
		t.Fatal("a delayed flow has no handle")
	}
	eng.Schedule(0.005, "cancel", func() { net.CancelFlow(id) })
	for eng.Step() {
		if net.ActiveFlows() != 0 {
			t.Fatalf("cancelled flow became active at t=%v", eng.Now())
		}
	}
	if fired {
		t.Fatal("cancelled delayed flow fired its callback")
	}
	if net.TotalBitsDelivered != 0 {
		t.Fatalf("cancelled delayed flow delivered %v bits", net.TotalBitsDelivered)
	}
	if net.nextID != 0 {
		t.Fatal("cancelled delayed flow was assigned a flow ID")
	}
}

// TestDelayedFlowIDsAssignedAtInjection: flow IDs — and with them freeze
// and callback order — follow injection, not StartFlow order. A delayed
// flow started first but injected second gets the later ID.
func TestDelayedFlowIDsAssignedAtInjection(t *testing.T) {
	eng, _, net := newNet(10)
	var recs []FlowRecord
	net.AddFlowObserver(func(r FlowRecord) { recs = append(recs, r) })
	net.PerHopLatencySec = 0.01
	net.StartFlow(0, 2, 1e6, Label("late"), nil)
	net.PerHopLatencySec = 0
	net.StartFlow(1, 4, 1e6, Label("early"), nil)
	eng.RunAll()
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	for _, r := range recs {
		want := map[string]uint64{"early": 0, "late": 1}[r.Name.String()]
		if r.ID != want {
			t.Fatalf("flow %s has ID %d, want %d", r.Name, r.ID, want)
		}
	}
}

// TestFlowCycleZeroAllocs: once the free list holds a struct, a steady
// StartFlow → completion cycle with a prebuilt callback allocates
// nothing — named with parts, delayed or not.
func TestFlowCycleZeroAllocs(t *testing.T) {
	for _, hop := range []float64{0, 1e-4} {
		eng, _, net := newNet(10)
		net.PerHopLatencySec = hop
		done := 0
		onDone := func() { done++ }
		i := 0
		cycle := func() {
			i++
			net.StartWeightedFlow(0, 2, 1e6, 4, Namef("act(b%d)%d→%d", i, 0, 1), onDone)
			net.StartFlow(1, 4, 2e6, Namef("gradsync(stage%d)", i).ringStep(i), onDone)
			eng.RunAll()
		}
		cycle()
		if n := testing.AllocsPerRun(200, cycle); n != 0 {
			t.Errorf("hop latency %v: a flow cycle allocates %v times, want 0", hop, n)
		}
		if done != 2*(1+201) || net.ActiveFlows() != 0 {
			t.Fatalf("hop latency %v: %d callbacks, %d active flows", hop, done, net.ActiveFlows())
		}
	}
}

// TestSyncReusesOneStatePerCollective: a ring all-reduce over four
// workers (six barriered steps of four flows) and a PS sync allocate a
// bounded handful of objects for the whole collective, not per step or
// per flow.
func TestSyncReusesOneStatePerCollective(t *testing.T) {
	eng, _, net := newNet(10)
	workers := []int{0, 2, 4, 6}
	done := func() {}
	for _, scheme := range []SyncScheme{RingAllReduce, ParameterServer} {
		run := func() {
			net.Sync(scheme, workers, 4e6, Namef("gradsync(stage%d)", 1), done)
			eng.RunAll()
		}
		run()
		if n := testing.AllocsPerRun(50, run); n > 2 {
			t.Errorf("%v sync allocates %v times, want ≤ 2 (its state and bound callback)", scheme, n)
		}
	}
}
