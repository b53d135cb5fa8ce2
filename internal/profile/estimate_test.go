package profile

import (
	"math"
	"testing"

	"autopipe/internal/cluster"
	"autopipe/internal/model"
	"autopipe/internal/netsim"
	"autopipe/internal/sim"
)

// runTransfers drives count back-to-back src→dst transfers through the
// network and drains the engine.
func runTransfers(eng *sim.Engine, net *netsim.Network, src, dst, count int, bytes int64) {
	var next func(i int)
	next = func(i int) {
		if i >= count {
			return
		}
		net.StartFlow(src, dst, bytes, netsim.Label("probe"), func() { next(i + 1) })
	}
	next(0)
	eng.Run(sim.Time(1e9))
}

func TestEstimatedBandwidthTracksContention(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	cl.SetExtShare(0, 0.6) // server 0's NIC: 25G line rate, 10G available
	eng := sim.NewEngine()
	net := netsim.New(eng, cl)
	pr := NewProfiler(model.AlexNet(), cl)
	pr.AttachNetwork(net)

	// Before any transfer the estimate is the line-rate seed.
	if got := pr.Observe().Bandwidth[0]; got != cluster.Gbps(25) {
		t.Fatalf("pre-measurement bandwidth %v, want 25G seed", got)
	}

	// Workers 0,1 live on server 0; worker 2 on server 1.
	runTransfers(eng, net, 0, 2, 60, 32<<20)
	got := pr.Observe().Bandwidth[0]
	want := cl.ServerOf(0).AvailBwBps()
	if rel := math.Abs(got-want) / want; rel > 0.15 {
		t.Fatalf("estimated bandwidth %.3g, truth %.3g, rel err %.2f > 0.15", got, want, rel)
	}
}

func TestOracleModeReadsGroundTruthDespiteNetwork(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	cl.SetExtShare(0, 0.5)
	eng := sim.NewEngine()
	net := netsim.New(eng, cl)
	pr := NewProfiler(model.AlexNet(), cl)
	pr.AttachNetwork(net)
	pr.SetOracle(true)
	if !pr.Oracle() {
		t.Fatal("SetOracle(true) did not stick")
	}
	if got, want := pr.Observe().Bandwidth[0], cl.ServerOf(0).AvailBwBps(); got != want {
		t.Fatalf("oracle bandwidth %v, want ground truth %v", got, want)
	}
}

func TestSetOracleFalseWithoutNetworkStaysOracle(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	pr := NewProfiler(model.AlexNet(), cl)
	pr.SetOracle(false)
	if !pr.Oracle() {
		t.Fatal("profiler without AttachNetwork must stay on the oracle path")
	}
	if pr.Estimator(0) != nil {
		t.Fatal("estimator exists before AttachNetwork")
	}
}

func TestSeedBandwidthIsLineRateWithoutObserving(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	pr := NewProfiler(model.AlexNet(), cl)
	seed := pr.SeedBandwidthBps()
	if seed != cluster.Gbps(25) || LineRateBps(cl) != seed {
		t.Fatalf("seed bandwidth %v, want nominal 25G line rate", seed)
	}
	// Reading the seed consumes no observation: the first real Observe
	// must match a fresh profiler's exactly.
	a := pr.Observe()
	b := NewProfiler(model.AlexNet(), cl).Observe()
	if a.Bandwidth[0] != b.Bandwidth[0] || a.FP[2][1] != b.FP[2][1] {
		t.Fatal("SeedBandwidthBps mutated profiler state")
	}
	if a.LineRateBps != seed {
		t.Fatal("Observe and SeedBandwidthBps disagree on the line rate")
	}
}
