package meta

import (
	"math"
	"sync"

	"autopipe/internal/netsim"
	"autopipe/internal/partition"
	"autopipe/internal/profile"
)

// Predictor estimates the training speed (samples/sec) a partition would
// achieve under the currently observed environment. The AutoPipe
// controller scores candidate partitions through this interface.
type Predictor interface {
	PredictSpeed(p *profile.Profile, plan partition.Plan, miniBatch int, h *History) float64
}

// ConcurrencySafe is an optional Predictor extension: a predictor whose
// PredictSpeed is safe to call from multiple goroutines at once reports
// it here, unlocking parallel candidate scoring in the search layer.
// Every built-in predictor qualifies: the analytic model scores through
// pooled slice scratch and the meta-network through pooled read-only
// inference sessions (shared frozen weights, private nn.Scratch), so
// nothing per-call is shared. The contract covers scoring only — weight
// mutation (Train/Adapt) must still be serialised against scoring, which
// the controller's decide-then-adapt loop already does.
type ConcurrencySafe interface {
	ConcurrentSafe() bool
}

// ParallelSafe reports whether pred may be invoked concurrently.
func ParallelSafe(pred Predictor) bool {
	cs, ok := pred.(ConcurrencySafe)
	return ok && cs.ConcurrentSafe()
}

// BatchPredictor is an optional Predictor extension: predictors that can
// score a whole candidate set against one (profile, miniBatch, history)
// context in a single pass advertise it here, and the search layer
// dispatches each scoring round through PredictSpeedBatch instead of one
// PredictSpeed round-trip per candidate. The contract is strict
// bit-identity: out[i] must equal PredictSpeed(p, plans[i], miniBatch, h)
// exactly, so batching can never change which plan a search chooses.
// len(out) must be ≥ len(plans); entries past len(plans) are untouched.
//
// base is a hint, not an input to the scores: the plan the candidates
// were enumerated from (the search incumbent), which incremental
// implementations use as the delta-evaluation base. A zero Plan is
// always valid — implementations then fall back to plans[0].
// All built-in predictors implement it: the meta-network amortises the
// candidate-independent LSTM pass and runs one batched head kernel, and
// the analytic model scores through the incremental delta-cost Evaluator
// rebased on plans[0].
type BatchPredictor interface {
	Predictor
	PredictSpeedBatch(p *profile.Profile, base partition.Plan, plans []partition.Plan, miniBatch int, h *History, out []float64)
}

// BatchCapable resolves pred's batched scoring path, if it has one.
func BatchCapable(pred Predictor) (BatchPredictor, bool) {
	bp, ok := pred.(BatchPredictor)
	return bp, ok
}

// HistoryAgnostic is an optional Predictor extension: predictors whose
// scores ignore the History argument report it here, letting caches of
// (profile, plan) scores survive history updates. Only the analytic
// model qualifies among the built-ins — the meta-network's LSTM consumes
// the window.
type HistoryAgnostic interface {
	HistoryIndependent() bool
}

// UsesHistory reports whether pred's scores may depend on the dynamic
// history window (conservatively true for unknown predictors).
func UsesHistory(pred Predictor) bool {
	ha, ok := pred.(HistoryAgnostic)
	return !(ok && ha.HistoryIndependent())
}

// AnalyticPredictor is the model-based fallback: a per-resource fluid
// model evaluated directly on the profiler's observations. It is what
// the paper calls "close to realistic modeling" — accurate but, on
// large models, slow to search exhaustively with, which is why the
// meta-network exists. AutoPipe uses it to bootstrap the meta-network
// and as a sanity bound.
//
// Unlike PipeDream's planning model it accounts for:
//   - per-worker contended compute speeds (not one exclusive GPU);
//   - per-server link loads with every flow that crosses them —
//     boundary activations/gradients AND gradient-sync traffic — rather
//     than a single uniform bandwidth;
//   - the actual synchronisation scheme (Observation 2: PipeDream
//     "assumes all_reduce ... the actual communication may use other
//     approach, e.g., parameter server");
//   - the in-flight mini-batch cap: throughput is also bounded by
//     InFlight × batch / round-trip latency (pipeline-fill limit).
type AnalyticPredictor struct {
	Scheme netsim.SyncScheme
	// SyncEvery is the gradient-coalescing period (default 1).
	SyncEvery int
}

// ConcurrentSafe implements ConcurrencySafe: the analytic model is a
// pure function of its arguments (its scratch is pooled per call).
func (AnalyticPredictor) ConcurrentSafe() bool { return true }

// serverOf resolves a worker's server from the profile's observed
// placement, falling back to the testbed pairing (two GPUs per server)
// for hand-built profiles without topology.
func serverOf(p *profile.Profile, w int) int {
	if w < len(p.Server) {
		return p.Server[w]
	}
	return w / 2
}

// analyticScratch is the slice workspace of one AnalyticPredictor call:
// flat accumulators indexed by worker/server in place of the six maps
// the hot loop used to allocate per call, plus per-profile tables
// (layer-cost prefix sums, parameter-byte prefix sums, resolved worker
// placement, per-server NIC bandwidth) that are rebuilt only when the
// scratch meets a new Profile. During a search every candidate shares
// one profile, so steady-state scoring allocates nothing and per-stage
// compute costs come from two prefix-sum lookups instead of a layer
// rescan.
type analyticScratch struct {
	// prof and epoch identify the profile contents the tables below were
	// built from. A profile refilled in place (profile.ObserveInto)
	// keeps its pointer but moves its Epoch when its values change, so
	// the pointer alone is not enough.
	prof  *profile.Profile
	epoch uint64

	// Per-profile tables.
	prefix      [][]float64 // prefix[w][l] = Σ_{j<l} FP[w][j]+BP[w][j]
	paramPrefix []int64     // paramPrefix[l] = Σ_{j<l} ParamBytes[j]
	server      []int       // resolved server of each worker
	srvBw       []float64   // per-server NIC bandwidth (max over workers)

	// Per-call accumulators, zeroed at the start of every prediction.
	compute  []float64 // seconds/batch per worker
	up, down []float64 // bits per server

	// pad keeps pooled scratches used by concurrent scorers from sharing
	// a cache line: the pool hands adjacent heap objects to different
	// goroutines and every accumulator header above is rewritten per
	// call, so an unpadded layout false-shares under RunParallel.
	_ [64]byte
}

// boundTo reports whether the per-profile tables were built from p's
// current contents.
func (sc *analyticScratch) boundTo(p *profile.Profile) bool {
	return sc.prof == p && sc.epoch == p.Epoch
}

var analyticPool = sync.Pool{New: func() any { return new(analyticScratch) }}

// bind rebuilds the per-profile tables for p. This is the only
// allocating step of the analytic path and runs once per new profile.
func (sc *analyticScratch) bind(p *profile.Profile) {
	sc.prof, sc.epoch = p, p.Epoch
	if cap(sc.prefix) < p.N {
		sc.prefix = make([][]float64, p.N)
	}
	sc.prefix = sc.prefix[:p.N]
	for w := 0; w < p.N; w++ {
		if cap(sc.prefix[w]) < p.L+1 {
			sc.prefix[w] = make([]float64, p.L+1)
		}
		row := sc.prefix[w][:p.L+1]
		row[0] = 0
		for l := 0; l < p.L; l++ {
			row[l+1] = row[l] + p.FP[w][l] + p.BP[w][l]
		}
		sc.prefix[w] = row
	}
	if cap(sc.paramPrefix) < p.L+1 {
		sc.paramPrefix = make([]int64, p.L+1)
	}
	sc.paramPrefix = sc.paramPrefix[:p.L+1]
	sc.paramPrefix[0] = 0
	for l := 0; l < p.L; l++ {
		sc.paramPrefix[l+1] = sc.paramPrefix[l] + p.ParamBytes[l]
	}
	if cap(sc.server) < p.N {
		sc.server = make([]int, p.N)
	}
	sc.server = sc.server[:p.N]
	nSrv := 0
	for w := 0; w < p.N; w++ {
		sc.server[w] = serverOf(p, w)
		if sc.server[w]+1 > nSrv {
			nSrv = sc.server[w] + 1
		}
	}
	if cap(sc.srvBw) < nSrv {
		sc.srvBw = make([]float64, nSrv)
	}
	sc.srvBw = sc.srvBw[:nSrv]
	for i := range sc.srvBw {
		sc.srvBw[i] = 0
	}
	// A server's bandwidth is the max of its workers' observed
	// bandwidths (they share the NIC).
	for w := 0; w < p.N; w++ {
		if p.Bandwidth[w] > sc.srvBw[sc.server[w]] {
			sc.srvBw[sc.server[w]] = p.Bandwidth[w]
		}
	}
	if cap(sc.compute) < p.N {
		sc.compute = make([]float64, p.N)
	}
	sc.compute = sc.compute[:p.N]
	if cap(sc.up) < nSrv {
		sc.up = make([]float64, nSrv)
		sc.down = make([]float64, nSrv)
	}
	sc.up, sc.down = sc.up[:nSrv], sc.down[:nSrv]
}

// PredictSpeed implements Predictor.
func (ap AnalyticPredictor) PredictSpeed(p *profile.Profile, plan partition.Plan, miniBatch int, _ *History) float64 {
	if len(plan.Stages) == 0 {
		return 0
	}
	sc := analyticPool.Get().(*analyticScratch)
	if !sc.boundTo(p) {
		sc.bind(p)
	}
	tp := ap.predict(sc, p, plan, miniBatch)
	analyticPool.Put(sc)
	return tp
}

// predict is the map-free hot loop, operating entirely on sc.
func (ap AnalyticPredictor) predict(sc *analyticScratch, p *profile.Profile, plan partition.Plan, miniBatch int) float64 {
	syncEvery := ap.SyncEvery
	if syncEvery < 1 {
		syncEvery = 1
	}
	// Per-batch resource demands.
	for i := range sc.compute {
		sc.compute[i] = 0
	}
	for i := range sc.up {
		sc.up[i], sc.down[i] = 0, 0
	}
	maxSerial := 0.0 // worst replicated-stage gradient-sync serial cost
	latency := 0.0   // one batch's end-to-end round trip

	for i, s := range plan.Stages {
		m := float64(len(s.Workers))
		// Compute per worker: each replica handles 1/m of the stream.
		stageMean := 0.0
		for _, w := range s.Workers {
			t := sc.prefix[w][s.End] - sc.prefix[w][s.Start]
			sc.compute[w] += t / m
			stageMean += t
		}
		stageMean /= m
		latency += stageMean

		// Gradient sync for replicated stages.
		if len(s.Workers) > 1 {
			bytes := sc.paramPrefix[s.End] - sc.paramPrefix[s.Start]
			V := float64(bytes*8) / float64(syncEvery)
			minBw := math.Inf(1)
			for _, w := range s.Workers {
				if p.Bandwidth[w] < minBw {
					minBw = p.Bandwidth[w]
				}
			}
			if ap.Scheme == netsim.RingAllReduce {
				// Each worker sends and receives 2(m−1)/m of V.
				per := 2 * (m - 1) / m * V
				for k, w := range s.Workers {
					next := s.Workers[(k+1)%len(s.Workers)]
					if sc.server[w] != sc.server[next] {
						sc.up[sc.server[w]] += per
						sc.down[sc.server[next]] += per
					}
				}
				if t := 2 * (m - 1) / m * V / minBw; t > maxSerial {
					maxSerial = t
				}
			} else {
				ps := s.Workers[0]
				remote := 0.0
				for _, w := range s.Workers[1:] {
					if sc.server[w] != sc.server[ps] {
						sc.up[sc.server[w]] += V
						sc.down[sc.server[w]] += V
						remote++
					}
				}
				sc.up[sc.server[ps]] += remote * V
				sc.down[sc.server[ps]] += remote * V
				if t := 2 * remote * V / minBw; t > maxSerial {
					maxSerial = t
				}
			}
		}

		// Boundary transfers to the next stage (activation forward,
		// gradient backward; each batch crosses once in each direction).
		if i < len(plan.Stages)-1 {
			next := plan.Stages[i+1]
			bits := float64(p.OutBytes[s.End-1] * 8)
			// Average over replica pairings.
			pairs := 0.0
			cross := 0.0
			minBw := math.Inf(1)
			for _, a := range s.Workers {
				for _, b := range next.Workers {
					pairs++
					if sc.server[a] != sc.server[b] {
						cross++
					}
					bw := math.Min(p.Bandwidth[a], p.Bandwidth[b])
					if bw < minBw {
						minBw = bw
					}
				}
			}
			frac := cross / pairs
			for _, a := range s.Workers {
				sc.up[sc.server[a]] += bits * frac / float64(len(s.Workers))
				sc.down[sc.server[a]] += bits * frac / float64(len(s.Workers))
			}
			for _, b := range next.Workers {
				sc.down[sc.server[b]] += bits * frac / float64(len(next.Workers))
				sc.up[sc.server[b]] += bits * frac / float64(len(next.Workers))
			}
			latency += 2 * bits / minBw
		}
	}

	// Bottleneck across all resources.
	bottleneck := maxSerial
	for _, t := range sc.compute {
		if t > bottleneck {
			bottleneck = t
		}
	}
	for srv, bits := range sc.up {
		if bw := sc.srvBw[srv]; bw > 0 {
			if t := bits / bw; t > bottleneck {
				bottleneck = t
			}
		}
	}
	for srv, bits := range sc.down {
		if bw := sc.srvBw[srv]; bw > 0 {
			if t := bits / bw; t > bottleneck {
				bottleneck = t
			}
		}
	}
	if bottleneck <= 0 {
		return 0
	}
	tp := float64(miniBatch) / bottleneck
	// Pipeline-fill cap: with k batches in flight and round-trip
	// latency T, at most k batches complete per T.
	if latency > 0 && plan.InFlight > 0 {
		fill := float64(plan.InFlight) * float64(miniBatch) / latency
		if fill < tp {
			tp = fill
		}
	}
	return tp
}

// evaluatorPool recycles incremental evaluators for the batched analytic
// path (one per concurrent PredictSpeedBatch call).
var evaluatorPool = sync.Pool{New: func() any { return new(Evaluator) }}

// PredictSpeedBatch implements BatchPredictor: it scores the whole set
// through one incremental Evaluator rebased on the incumbent hint (or
// plans[0] without one), so a candidate re-derives only the stages it
// does not share with that base — O(L/W) per neighbour instead of
// O(W·L). Bit-identical to per-plan PredictSpeed by the Evaluator's
// contract (unmatched stages fall back
// to the exact full-path term computation).
func (ap AnalyticPredictor) PredictSpeedBatch(p *profile.Profile, base partition.Plan, plans []partition.Plan, miniBatch int, _ *History, out []float64) {
	if len(plans) == 0 {
		return
	}
	if len(base.Stages) == 0 {
		base = plans[0]
	}
	ev := evaluatorPool.Get().(*Evaluator)
	ev.ap = ap
	ev.Rebase(p, base)
	for i, plan := range plans {
		out[i] = ev.PredictSpeed(plan, miniBatch)
	}
	evaluatorPool.Put(ev)
}

// HistoryIndependent implements HistoryAgnostic: the analytic model
// scores from the profile alone.
func (AnalyticPredictor) HistoryIndependent() bool { return true }

// NetPredictor wraps the trained meta-network as a Predictor,
// de-normalizing its output by the ideal-throughput scale.
type NetPredictor struct {
	Net *Network
}

// ConcurrentSafe implements ConcurrencySafe: every call scores through
// a pooled read-only inference session (shared frozen weights, private
// scratch), so concurrent callers never share mutable state.
func (NetPredictor) ConcurrentSafe() bool { return true }

// PredictSpeed implements Predictor. It is allocation-free in steady
// state and bit-identical to evaluating Network.Predict on
// BuildFeatures output.
func (np NetPredictor) PredictSpeed(p *profile.Profile, plan partition.Plan, miniBatch int, h *History) float64 {
	s := np.Net.Session()
	y := s.PredictSpeed(p, plan, miniBatch, h)
	s.Release()
	return y
}

// PredictSpeedBatch implements BatchPredictor: one pooled session scores
// the whole set, encoding the shared history window through the LSTM
// once and running a single batched head pass (see
// InferSession.PredictSpeedBatch for the bit-identity argument).
func (np NetPredictor) PredictSpeedBatch(p *profile.Profile, _ partition.Plan, plans []partition.Plan, miniBatch int, h *History, out []float64) {
	s := np.Net.Session()
	s.PredictSpeedBatch(p, plans, miniBatch, h, out)
	s.Release()
}

// PredictSpeed scores (profile, plan) through the session, encoding the
// features straight into the session's buffers: the full inference path
// with zero steady-state allocations. A nil History scores the all-zero
// dynamic window.
func (s *InferSession) PredictSpeed(p *profile.Profile, plan partition.Plan, miniBatch int, h *History) float64 {
	EncodeStaticInto(s.cat[lstmHidden:lstmHidden+StaticDim], p, miniBatch)
	EncodePartitionInto(s.cat[lstmHidden+StaticDim:], p, plan)
	s.scratch.Reset()
	hv := s.net.lstm.InferSeq(h.WindowInto(s.dyn), &s.scratch)
	copy(s.cat[:lstmHidden], hv)
	out := s.net.head.Infer(s.cat, &s.scratch)
	y := out[0]
	if y < 0 {
		y = 0
	}
	return y * IdealThroughput(p, miniBatch)
}

// HybridPredictor averages the meta-network with the analytic model,
// weighting the network by its online confidence (starts analytic-heavy,
// trusts the net as adaptation progresses). This reflects the deployment
// strategy of §4.3: an offline-trained net mistrusts out-of-distribution
// environments until adapted.
type HybridPredictor struct {
	Net *Network
	// NetWeight in [0,1]: contribution of the network.
	NetWeight float64
	// Scheme configures the analytic component.
	Scheme netsim.SyncScheme
}

// ConcurrentSafe implements ConcurrencySafe: both components are — the
// analytic model is pure and the net component scores through pooled
// inference sessions — so hybrid scoring parallelises too.
func (*HybridPredictor) ConcurrentSafe() bool { return true }

// PredictSpeed implements Predictor.
func (hp *HybridPredictor) PredictSpeed(p *profile.Profile, plan partition.Plan, miniBatch int, h *History) float64 {
	a := AnalyticPredictor{Scheme: hp.Scheme}.PredictSpeed(p, plan, miniBatch, h)
	if hp.Net == nil || hp.NetWeight <= 0 {
		return a
	}
	n := NetPredictor{Net: hp.Net}.PredictSpeed(p, plan, miniBatch, h)
	w := hp.NetWeight
	if w > 1 {
		w = 1
	}
	return w*n + (1-w)*a
}

// hybridBatchPool recycles the net-score side buffer of the hybrid
// batched path.
var hybridBatchPool = sync.Pool{New: func() any { return new([]float64) }}

// PredictSpeedBatch implements BatchPredictor: both components run their
// own batched pass and blend per candidate with the exact serial
// expression (w*n + (1-w)*a, identical operand order), so each out[i] is
// bit-identical to PredictSpeed on plans[i].
func (hp *HybridPredictor) PredictSpeedBatch(p *profile.Profile, base partition.Plan, plans []partition.Plan, miniBatch int, h *History, out []float64) {
	if len(plans) == 0 {
		return
	}
	AnalyticPredictor{Scheme: hp.Scheme}.PredictSpeedBatch(p, base, plans, miniBatch, nil, out)
	if hp.Net == nil || hp.NetWeight <= 0 {
		return
	}
	nbp := hybridBatchPool.Get().(*[]float64)
	nb := *nbp
	if cap(nb) < len(plans) {
		nb = make([]float64, len(plans))
	}
	nb = nb[:len(plans)]
	NetPredictor{Net: hp.Net}.PredictSpeedBatch(p, partition.Plan{}, plans, miniBatch, h, nb)
	w := hp.NetWeight
	if w > 1 {
		w = 1
	}
	for i := range nb {
		out[i] = w*nb[i] + (1-w)*out[i]
	}
	*nbp = nb
	hybridBatchPool.Put(nbp)
}
