package profile

import (
	"autopipe/internal/bwe"
	"autopipe/internal/cluster"
	"autopipe/internal/netsim"
)

// This file is the measurement half of the profiler: instead of reading
// the cluster's ground-truth available bandwidth (an oracle no real job
// has), the profiler can consume flow-completion records from the network
// simulator and run one bandwidth estimator per server NIC. The oracle
// path remains available — explicitly, for A/B experiments and for tests
// that need exact values — but measurement is the default once a network
// is attached.

// AttachNetwork switches the profiler to estimated-bandwidth mode: it
// builds one bwe.Estimator per server, seeded at that server's NIC line
// rate, and registers a flow observer that feeds every foreground flow
// completion to the estimators of both endpoint servers. Background
// (cross-traffic) flows are skipped — a real job cannot observe other
// tenants' transfers, only their effect on its own.
//
// Call before the first Observe. Calling SetOracle(true) afterwards
// keeps the estimators fed but reads ground truth again.
func (p *Profiler) AttachNetwork(net *netsim.Network) {
	if p.est == nil {
		p.est = make([]*bwe.Estimator, len(p.cl.Servers))
		for i, s := range p.cl.Servers {
			p.est[i] = bwe.New(bwe.Config{InitialBps: s.NICBwBps})
		}
	}
	net.AddFlowObserver(func(r netsim.FlowRecord) {
		if r.Background || r.SrcServer == r.DstServer {
			return
		}
		obs := bwe.Obs{AtSec: float64(r.End), Seconds: r.Seconds(), Bits: r.Bits}
		p.est[r.SrcServer].Observe(obs)
		p.est[r.DstServer].Observe(obs)
	})
	p.oracle = false
}

// SetOracle selects the bandwidth source: true reads the cluster's
// ground-truth AvailBwBps (jittered and smoothed, the legacy behavior);
// false reads the per-server estimators. Estimation requires a prior
// AttachNetwork — without one the profiler stays on the oracle path
// regardless.
func (p *Profiler) SetOracle(oracle bool) { p.oracle = oracle || p.est == nil }

// Oracle reports whether Observe reads ground-truth bandwidth.
func (p *Profiler) Oracle() bool { return p.oracle }

// Estimator exposes server s's bandwidth estimator (nil before
// AttachNetwork) for experiments and tests.
func (p *Profiler) Estimator(s int) *bwe.Estimator {
	if p.est == nil {
		return nil
	}
	return p.est[s]
}

// bandwidth returns worker w's bandwidth for the current iteration from
// whichever source is active.
func (p *Profiler) bandwidth(w int) float64 {
	if !p.oracle && p.est != nil {
		// Estimates are already smoothed and noise-bearing — the
		// estimator consumed real (simulated) transfer timings — so the
		// profiler adds neither jitter nor a second EWMA.
		return p.est[p.cl.GPU(w).Server].EstimateBps()
	}
	bw := p.jitter(p.cl.ServerOf(w).AvailBwBps())
	if p.bwEwma[w] == 0 {
		p.bwEwma[w] = bw
	} else {
		p.bwEwma[w] = p.alpha*bw + (1-p.alpha)*p.bwEwma[w]
	}
	return p.bwEwma[w]
}

// SeedBandwidthBps is the bandwidth a planner assumes before any
// dynamic measurement exists: the nominal line rate (PipeDream's
// published planning assumption). Reading it consumes no observation.
func (p *Profiler) SeedBandwidthBps() float64 { return LineRateBps(p.cl) }

// LineRateBps is the cluster's nominal NIC speed (homogeneous in every
// testbed this repo models; server 0 is the representative). It is the
// single seed source every planner reads, through a Profiler or, where
// none exists, directly.
func LineRateBps(cl *cluster.Cluster) float64 { return cl.Servers[0].NICBwBps }
