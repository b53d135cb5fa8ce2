package netsim

import (
	"math"
	"testing"

	"autopipe/internal/cluster"
	"autopipe/internal/sim"
)

func TestEstimateSecondsRackPathBottleneck(t *testing.T) {
	// Two racks, 10G NICs, 4G rack uplinks: the cross-rack estimate is
	// bound by the rack fabric, the same-rack one by the NIC.
	cl := cluster.NewCluster(cluster.Config{
		Servers: 4, GPUsPerServer: 1, GPUType: cluster.P100,
		NICBwBps: cluster.Gbps(10), Racks: 2, RackUplinkBps: cluster.Gbps(4),
	})
	net := New(sim.NewEngine(), cl)
	// Servers round-robin across racks: 0,2 in rack 0; 1,3 in rack 1.
	sameRack := net.EstimateSeconds(0, 2, 5e8)  // 4e9 bits / 10G
	crossRack := net.EstimateSeconds(0, 1, 5e8) // 4e9 bits / 4G
	if math.Abs(sameRack-0.4) > 1e-9 {
		t.Fatalf("same-rack estimate %v, want 0.4", sameRack)
	}
	if math.Abs(crossRack-1.0) > 1e-9 {
		t.Fatalf("cross-rack estimate %v, want 1.0 (rack uplink bound)", crossRack)
	}
}

func TestEstimateSecondsThrottledRouteFallsBack(t *testing.T) {
	_, cl, net := newNet(10)
	cl.SetNICBandwidth(0) // dead fabric: every route has zero capacity
	// 1e9 bits over the 1 Gbps fallback floor: deadlines stay finite.
	if got := net.EstimateSeconds(0, 2, 1.25e8); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("throttled-route estimate %v, want 1.0 via 1G fallback", got)
	}
	// Heavy external throttling keeps the 1% capacity floor instead:
	// still finite, no fallback needed.
	cl.SetNICBandwidth(cluster.Gbps(10))
	cl.SetExtShareAll(1.0)
	if got := net.EstimateSeconds(0, 2, 1.25e8); math.Abs(got-10.0) > 1e-9 {
		t.Fatalf("floored-route estimate %v, want 10.0 via the 1%% floor", got)
	}
}

func TestStartWeightedFlowNormalizesNonPositiveWeight(t *testing.T) {
	// A weight ≤ 0 is treated as 1: two equal flows sharing the same
	// route must finish together regardless of a negative weight.
	eng, _, net := newNet(10)
	var a, b sim.Time = -1, -1
	net.StartWeightedFlow(0, 2, 6.25e8, -3, Label("neg"), func() { a = eng.Now() })
	net.StartWeightedFlow(1, 3, 6.25e8, 1, Label("pos"), func() { b = eng.Now() })
	eng.RunAll()
	if a < 0 || b < 0 {
		t.Fatal("flows did not complete")
	}
	if math.Abs(float64(a-b)) > 1e-9 {
		t.Fatalf("unequal completion: neg-weight at %v, unit-weight at %v", a, b)
	}
	// Each got half the 10G uplink: 5e9 bits / 5G = 1s.
	if math.Abs(float64(a)-1.0) > 1e-9 {
		t.Fatalf("completion at %v, want 1.0 under equal shares", a)
	}
}
