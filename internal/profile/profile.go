// Package profile implements AutoPipe's training profiler (paper §4.2,
// Table 1). Static metrics (layer counts, activation/gradient/parameter
// sizes) are recorded once before training; dynamic metrics — per-worker
// available bandwidth and per-worker-per-layer FP/BP times — are observed
// every iteration without interfering with training.
//
// Per the paper, the profiler does not time every layer on every worker
// each iteration: it measures per-layer time *ratios* once (they are
// near-constant for a fixed model), then each iteration observes a single
// reference layer per worker and reconstructs the full FP/BP matrices
// from the ratios.
//
// Observe returns a fresh Profile the caller owns. A per-iteration
// consumer refills one Profile with ObserveInto instead: its contents
// are valid until the next refill of the same destination, and a cache
// derived from it must key on the pointer and Epoch together. Every
// Profile shares its profiler's static byte arrays read-only.
package profile

import (
	"fmt"
	"math"
	"math/rand"

	"autopipe/internal/bwe"
	"autopipe/internal/cluster"
	"autopipe/internal/model"
)

// Profile is one iteration's view of Table 1.
type Profile struct {
	// Static metrics.
	L, N       int
	OutBytes   []int64 // O_i per mini-batch, length L
	GradBytes  []int64 // G_i per mini-batch, length L
	ParamBytes []int64 // P_i, length L

	// Dynamic metrics.
	Bandwidth []float64   // B_i bits/sec per worker, length N
	FP        [][]float64 // FP[i][j]: FP time of layer j on worker i
	BP        [][]float64 // BP[i][j]

	// LineRateBps is the nominal NIC line rate — a static datum the job
	// knows from its placement, independent of any measurement; the same
	// value planners seed cost models with (Profiler.SeedBandwidthBps).
	LineRateBps float64

	// Topology: Server[i] is the server hosting worker i (known to the
	// job from its placement), Rack[i] its leaf switch.
	Server []int
	Rack   []int

	// Epoch is the profiler's observation-content generation: it changes
	// only when an Observe produced different dynamic values (compute
	// timings, bandwidths, topology) than the previous one. Consumers
	// that cache per-profile derivations — the controller's cross-round
	// candidate-score cache — key them by Epoch, so an unchanged
	// environment keeps serving cached work. Two profiles with equal
	// Epoch from the same Profiler carry identical dynamic metrics.
	Epoch uint64

	// totals[w] is TotalComputeTime(w), summed once by the fill that
	// carved the FP rows totalsOf points at. A Profile built by hand, or
	// whose FP rows were replaced since, has no match and sums per call.
	totals   []float64
	totalsOf *[]float64
}

// TotalComputeTime returns Σ (FP+BP) of all layers on worker w.
func (p *Profile) TotalComputeTime(w int) float64 {
	if len(p.FP) > 0 && p.totalsOf == &p.FP[0] {
		return p.totals[w]
	}
	return sumComputeTime(p.FP[w][:p.L], p.BP[w][:p.L])
}

// sumComputeTime is Σ fp[j]+bp[j] in layer order: the one association
// every compute total uses.
func sumComputeTime(fp, bp []float64) float64 {
	s := 0.0
	for j := range fp {
		s += fp[j] + bp[j]
	}
	return s
}

// Profiler observes a (model, cluster) pair. It is deliberately the only
// component that reads the cluster's ground truth: everything downstream
// (meta-network, RL arbiter, controller) sees the world through Profile
// values, mirroring the paper's measurement pipeline.
type Profiler struct {
	model *model.Model
	cl    *cluster.Cluster

	// ratios[j] is layer j's share of total forward time, measured once
	// before training on a reference GPU.
	ratios []float64
	// refLayer is the layer the profiler actually times each iteration.
	refLayer int
	// Smoothing keeps one observation per worker; an EWMA suppresses
	// single-iteration noise. alpha=1 disables smoothing.
	alpha  float64
	smooth []float64 // smoothed FP time of refLayer per worker
	bwEwma []float64

	// Measurement noise: real iteration timings jitter (kernel launch
	// variance, background daemons). When rng is set, each observation
	// is multiplied by exp(N(0, sigma)).
	noiseRng   *rand.Rand
	noiseSigma float64

	// Bandwidth source: est holds one estimator per server once
	// AttachNetwork has been called; oracle selects the legacy
	// ground-truth read (see estimate.go).
	est    []*bwe.Estimator
	oracle bool

	// Epoch bookkeeping (see Profile.Epoch): the last stamped epoch and
	// the dynamic values it was stamped against.
	epoch       uint64
	epochInit   bool
	epochSmooth []float64
	epochBw     []float64
	epochVer    uint64

	// Static per-layer byte arrays, recorded once before training and
	// shared read-only by every Profile this profiler fills.
	outBytes, gradBytes, paramBytes []int64
}

// NewProfiler builds a profiler, records the static metrics and performs
// the one-off pre-training ratio measurement on worker 0's GPU type.
func NewProfiler(m *model.Model, cl *cluster.Cluster) *Profiler {
	L := m.NumLayers()
	p := &Profiler{
		model: m, cl: cl, alpha: 0.5, oracle: true,
		outBytes: make([]int64, L), gradBytes: make([]int64, L), paramBytes: make([]int64, L),
	}
	total := 0.0
	times := make([]float64, L)
	g := cl.GPU(0)
	saved := g.CompetingJobs
	g.CompetingJobs = 0
	for j, l := range m.Layers {
		times[j] = cl.FPTime(l, m.MiniBatch, 0)
		total += times[j]
		p.outBytes[j] = l.OutputBytes(m.MiniBatch)
		p.gradBytes[j] = l.GradientBytes(m.MiniBatch)
		p.paramBytes[j] = l.ParamBytes()
	}
	g.CompetingJobs = saved
	p.ratios = make([]float64, len(times))
	best := 0
	for j, t := range times {
		p.ratios[j] = t / total
		if t > times[best] {
			best = j
		}
	}
	p.refLayer = best // time the heaviest layer: best signal-to-noise
	return p
}

// SetSmoothing sets the EWMA coefficient in (0,1]; 1 disables smoothing.
func (p *Profiler) SetSmoothing(alpha float64) error {
	if alpha <= 0 || alpha > 1 {
		return fmt.Errorf("profile: smoothing alpha %v outside (0,1]", alpha)
	}
	p.alpha = alpha
	return nil
}

// SetNoise enables multiplicative log-normal measurement noise with the
// given sigma, driven by rng. sigma ≤ 0 disables noise.
func (p *Profiler) SetNoise(rng *rand.Rand, sigma float64) {
	p.noiseRng = rng
	p.noiseSigma = sigma
}

// jitter applies measurement noise to one observation.
func (p *Profiler) jitter(x float64) float64 {
	if p.noiseRng == nil || p.noiseSigma <= 0 {
		return x
	}
	return x * math.Exp(p.noiseRng.NormFloat64()*p.noiseSigma)
}

// Observe returns the current iteration's Profile as a fresh value the
// caller owns outright (ObserveInto(new(Profile))).
func (p *Profiler) Observe() *Profile { return p.ObserveInto(new(Profile)) }

// ObserveInto refills dst with the current iteration's Profile and
// returns it. dst's dynamic slices are reused once they have the right
// shape — FP and BP are each carved from one N·L backing array — and the
// static byte arrays are the Profiler's own, shared read-only by every
// Profile it produces. Ownership rule: the contents are valid until the
// next refill of the same destination, so a consumer that must outlive
// it copies what it needs. A destination is refilled by one Profiler
// only: caches keyed on (pointer, Epoch) rely on it. The jitter RNG is
// drawn in exactly Observe's order, so a reused destination holds
// bit-identical values to a fresh one.
func (p *Profiler) ObserveInto(dst *Profile) *Profile {
	m := p.model
	N := p.cl.NumGPUs()
	L := m.NumLayers()
	if p.smooth == nil {
		p.smooth = make([]float64, N)
		p.bwEwma = make([]float64, N)
	}
	dst.L, dst.N, dst.LineRateBps = L, N, LineRateBps(p.cl)
	dst.OutBytes, dst.GradBytes, dst.ParamBytes = p.outBytes, p.gradBytes, p.paramBytes
	dst.Bandwidth = resize(dst.Bandwidth, N)
	dst.Server = resize(dst.Server, N)
	dst.Rack = resize(dst.Rack, N)
	dst.FP = carve(dst.FP, N, L)
	dst.BP = carve(dst.BP, N, L)
	dst.totals = resize(dst.totals, N)
	dst.totalsOf = nil
	if N > 0 {
		dst.totalsOf = &dst.FP[0]
	}
	for w := 0; w < N; w++ {
		dst.Server[w] = p.cl.GPU(w).Server
		dst.Rack[w] = p.cl.ServerOf(w).Rack
		// Bandwidth observed from the last iteration's transfers —
		// estimated from flow completions, or the oracle (estimate.go).
		dst.Bandwidth[w] = p.bandwidth(w)

		// One timed layer per worker, the rest via ratios.
		measured := p.jitter(p.cl.FPTime(m.Layers[p.refLayer], m.MiniBatch, w))
		if p.smooth[w] == 0 {
			p.smooth[w] = measured
		} else {
			p.smooth[w] = p.alpha*measured + (1-p.alpha)*p.smooth[w]
		}
		base := p.smooth[w] / p.ratios[p.refLayer]
		fp, bp := dst.FP[w], dst.BP[w]
		for j := 0; j < L; j++ {
			fp[j] = base * p.ratios[j]
			bp[j] = fp[j] * cluster.BPComputeFactor
		}
		dst.totals[w] = sumComputeTime(fp, bp)
	}
	dst.Epoch = p.stampEpoch(dst)
	return dst
}

// resize returns s with length n, reusing its storage when large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// carve returns an n×l matrix whose rows share one backing array,
// reusing rows as they are when they already have that shape.
func carve(rows [][]float64, n, l int) [][]float64 {
	if len(rows) == n {
		fits := true
		for _, r := range rows {
			fits = fits && len(r) == l
		}
		if fits {
			return rows
		}
	}
	flat := make([]float64, n*l)
	rows = make([][]float64, n)
	for i := range rows {
		rows[i] = flat[i*l : (i+1)*l : (i+1)*l]
	}
	return rows
}

// stampEpoch returns the observation-content epoch for this observation,
// bumping it only when the smoothed timings, observed bandwidths or
// cluster topology changed since the previous Observe. Every dynamic
// field of a Profile is a pure function of these inputs, so equal epochs
// guarantee identical profile contents.
func (p *Profiler) stampEpoch(out *Profile) uint64 {
	N := out.N
	ver := p.cl.Version()
	changed := !p.epochInit || ver != p.epochVer ||
		len(p.epochSmooth) != N || len(p.epochBw) != N
	if !changed {
		for w := 0; w < N; w++ {
			if p.smooth[w] != p.epochSmooth[w] || out.Bandwidth[w] != p.epochBw[w] {
				changed = true
				break
			}
		}
	}
	if changed {
		p.epoch++
		p.epochInit = true
		p.epochVer = ver
		p.epochSmooth = append(p.epochSmooth[:0], p.smooth[:N]...)
		p.epochBw = append(p.epochBw[:0], out.Bandwidth...)
	}
	return p.epoch
}

// Ratios exposes the pre-training per-layer time shares (tests).
func (p *Profiler) Ratios() []float64 { return append([]float64(nil), p.ratios...) }
