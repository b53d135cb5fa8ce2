package experiments

import (
	"math/rand"

	"autopipe/internal/cluster"
	"autopipe/internal/meta"
	"autopipe/internal/model"
	"autopipe/internal/netsim"
	"autopipe/internal/profile"
	"autopipe/internal/sim"
)

// Congestion / estimation experiments: the measurement-layer counterpart
// of the fault-injection studies. Instead of asking "does the controller
// survive failures", these ask "does the controller see the network
// truthfully when it can only measure its own transfers" — oracle
// bandwidth vs the internal/bwe estimator fed from netsim flow records.

// CongestionResult pairs an estimator reading with the ground truth it
// should have recovered.
type CongestionResult struct {
	TrueBps float64
	EstBps  float64
}

// RelErr is |est − truth| / truth.
func (r CongestionResult) RelErr() float64 {
	if r.TrueBps == 0 {
		return 0
	}
	d := r.EstBps - r.TrueBps
	if d < 0 {
		d = -d
	}
	return d / r.TrueBps
}

// runProbes drives count back-to-back src→dst transfers, invokes onDone
// after the last completes, then drains the engine.
func runProbes(eng *sim.Engine, net *netsim.Network, src, dst, count int, bytes int64, onDone func()) {
	var next func(i int)
	next = func(i int) {
		if i >= count {
			if onDone != nil {
				onDone()
			}
			return
		}
		net.StartFlow(src, dst, bytes, netsim.Label("probe"), func() { next(i + 1) })
	}
	next(0)
	eng.RunAll()
}

// SteadyCrossTrafficConvergence measures a probe stream sharing server
// 0's uplink with one steady background source, per-link queueing on.
// The fair share of the 25G uplink is 12.5G; the estimator — which never
// sees the background flows, only its own slowed transfers — must
// converge to that.
func SteadyCrossTrafficConvergence() CongestionResult {
	cl := cluster.Testbed(cluster.Gbps(25))
	eng := sim.NewEngine()
	net := netsim.New(eng, cl)
	net.EnableQueueing(netsim.QueueConfig{MaxDelaySec: 0.05})
	pr := profile.NewProfiler(model.AlexNet(), cl)
	pr.AttachNetwork(net)
	// Effectively always-on background load: worker 1 (server 0) →
	// worker 4 (server 2) contends for server 0's uplink only.
	xt := netsim.NewCrossTraffic(net, netsim.CrossTrafficConfig{
		Pairs: [][2]int{{1, 4}}, MeanOnSec: 1e6, MeanOffSec: 1e-3,
	})
	xt.Start()
	runProbes(eng, net, 0, 2, 80, 512<<20, xt.Stop)
	return CongestionResult{
		TrueBps: cl.ServerOf(0).AvailBwBps() / 2,
		EstBps:  pr.Estimator(0).EstimateBps(),
	}
}

// CrossTrafficRamp measures the estimate on a clean link, then after
// background traffic ramps in. The estimator must track downward.
func CrossTrafficRamp() (clean, contended CongestionResult) {
	cl := cluster.Testbed(cluster.Gbps(25))
	eng := sim.NewEngine()
	net := netsim.New(eng, cl)
	net.EnableQueueing(netsim.QueueConfig{})
	pr := profile.NewProfiler(model.AlexNet(), cl)
	pr.AttachNetwork(net)
	runProbes(eng, net, 0, 2, 40, 256<<20, nil)
	clean = CongestionResult{
		TrueBps: cl.ServerOf(0).AvailBwBps(),
		EstBps:  pr.Estimator(0).EstimateBps(),
	}
	xt := netsim.NewCrossTraffic(net, netsim.CrossTrafficConfig{
		Pairs: [][2]int{{1, 4}}, MeanOnSec: 1e6, MeanOffSec: 1e-3,
	})
	xt.Start()
	runProbes(eng, net, 0, 2, 60, 256<<20, xt.Stop)
	contended = CongestionResult{
		TrueBps: cl.ServerOf(0).AvailBwBps() / 2,
		EstBps:  pr.Estimator(0).EstimateBps(),
	}
	return clean, contended
}

// NICFlapSlowStart measures estimator tracking through a NIC flap:
// steady at line rate, a 10× capacity drop, then recovery. The
// post-recovery estimate must re-converge (slow start from the EWMA
// floor), not crawl additively back from the degraded rate.
func NICFlapSlowStart() (before, during, after CongestionResult) {
	cl := cluster.Testbed(cluster.Gbps(25))
	eng := sim.NewEngine()
	net := netsim.New(eng, cl)
	pr := profile.NewProfiler(model.AlexNet(), cl)
	pr.AttachNetwork(net)
	read := func() CongestionResult {
		return CongestionResult{
			TrueBps: cl.ServerOf(0).AvailBwBps(),
			EstBps:  pr.Estimator(0).EstimateBps(),
		}
	}
	runProbes(eng, net, 0, 2, 40, 256<<20, nil)
	before = read()
	cl.SetNICBandwidth(cluster.Gbps(2.5))
	net.OnCapacityChange()
	runProbes(eng, net, 0, 2, 40, 256<<20, nil)
	during = read()
	cl.SetNICBandwidth(cluster.Gbps(25))
	net.OnCapacityChange()
	runProbes(eng, net, 0, 2, 60, 256<<20, nil)
	after = read()
	return before, during, after
}

// OracleEstimatedAB runs the same AutoPipe scenario twice — the profiler
// reading ground-truth bandwidth vs estimating it from the job's own
// flow completions — across a mid-run contention shift, and returns both
// throughputs. The controller scores candidates with the hybrid
// predictor (the paper's deployed configuration), so the A/B tests the
// imperfect-metrics tolerance claim end-to-end: estimation costs
// information; it must not cost much speed.
func OracleEstimatedAB(m *model.Model, nicGbps float64) (oracle, estimated float64, err error) {
	run := func(oracleBw bool) (float64, error) {
		rng := rand.New(rand.NewSource(11))
		return Run(Scenario{
			Model: m, NICGbps: nicGbps, System: AutoPipe,
			OracleBandwidth: oracleBw,
			Predictor:       &meta.HybridPredictor{Net: meta.NewNetwork(rng), NetWeight: 0.2},
			MutateAt:        5,
			Mutate:          func(cl *cluster.Cluster) { cl.SetExtShareAll(0.3) },
		})
	}
	if oracle, err = run(true); err != nil {
		return 0, 0, err
	}
	if estimated, err = run(false); err != nil {
		return 0, 0, err
	}
	return oracle, estimated, nil
}
