package profile

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"autopipe/internal/cluster"
	"autopipe/internal/model"
	"autopipe/internal/netsim"
	"autopipe/internal/sim"
	"autopipe/internal/trace"
)

func TestStaticMetricsShapes(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.AlexNet()
	p := NewProfiler(m, cl).Observe()
	if p.L != m.NumLayers() || p.N != 10 {
		t.Fatalf("L=%d N=%d", p.L, p.N)
	}
	if len(p.OutBytes) != p.L || len(p.ParamBytes) != p.L || len(p.GradBytes) != p.L {
		t.Fatal("static metric lengths wrong")
	}
	if len(p.Bandwidth) != p.N || len(p.FP) != p.N || len(p.FP[0]) != p.L {
		t.Fatal("dynamic metric shapes wrong")
	}
}

func TestRatiosSumToOne(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	pr := NewProfiler(model.VGG16(), cl)
	sum := 0.0
	for _, r := range pr.Ratios() {
		if r < 0 {
			t.Fatal("negative ratio")
		}
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("ratios sum to %v", sum)
	}
}

func TestRatioReconstructionMatchesGroundTruth(t *testing.T) {
	// In a noise-free world, ratio-based reconstruction is exact: the
	// observed FP matrix must match the cluster's true per-layer times.
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.ResNet50()
	pr := NewProfiler(m, cl)
	if err := pr.SetSmoothing(1); err != nil {
		t.Fatal(err)
	}
	p := pr.Observe()
	for w := 0; w < p.N; w += 3 {
		for j := 0; j < p.L; j += 7 {
			truth := cl.FPTime(m.Layers[j], m.MiniBatch, w)
			if rel := math.Abs(p.FP[w][j]-truth) / truth; rel > 1e-9 {
				t.Fatalf("FP[%d][%d]=%v truth=%v rel=%v", w, j, p.FP[w][j], truth, rel)
			}
			if math.Abs(p.BP[w][j]-2*p.FP[w][j]) > 1e-15 {
				t.Fatal("BP != 2×FP in profile")
			}
		}
	}
}

func TestProfilerSeesContention(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.AlexNet()
	pr := NewProfiler(m, cl)
	_ = pr.SetSmoothing(1)
	before := pr.Observe()
	cl.SetCompetingJobs(3, 1)
	after := pr.Observe()
	if after.FP[3][0] <= before.FP[3][0] {
		t.Fatal("profiler missed GPU contention")
	}
	if after.FP[4][0] != before.FP[4][0] {
		t.Fatal("contention leaked to unaffected worker")
	}
}

func TestProfilerSeesBandwidthChange(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(100))
	pr := NewProfiler(model.AlexNet(), cl)
	_ = pr.SetSmoothing(1)
	before := pr.Observe()
	cl.SetNICBandwidth(cluster.Gbps(10))
	after := pr.Observe()
	if after.Bandwidth[0] >= before.Bandwidth[0] {
		t.Fatal("profiler missed bandwidth drop")
	}
}

func TestEWMASmoothing(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(100))
	pr := NewProfiler(model.AlexNet(), cl)
	_ = pr.SetSmoothing(0.5)
	first := pr.Observe()
	cl.SetNICBandwidth(cluster.Gbps(10))
	second := pr.Observe()
	// One observation at alpha=0.5 moves halfway.
	want := 0.5*cluster.Gbps(10) + 0.5*first.Bandwidth[0]
	if math.Abs(second.Bandwidth[0]-want) > 1 {
		t.Fatalf("EWMA bandwidth = %v, want %v", second.Bandwidth[0], want)
	}
}

func TestSetSmoothingValidation(t *testing.T) {
	pr := NewProfiler(model.AlexNet(), cluster.Testbed(cluster.Gbps(10)))
	if pr.SetSmoothing(0) == nil || pr.SetSmoothing(1.5) == nil {
		t.Fatal("invalid alpha accepted")
	}
	if pr.SetSmoothing(1) != nil {
		t.Fatal("alpha=1 rejected")
	}
}

func TestTotalComputeTime(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	pr := NewProfiler(model.AlexNet(), cl)
	_ = pr.SetSmoothing(1)
	p := pr.Observe()
	s := 0.0
	for j := 0; j < p.L; j++ {
		s += p.FP[0][j] + p.BP[0][j]
	}
	if math.Abs(p.TotalComputeTime(0)-s) > 1e-12 {
		t.Fatal("TotalComputeTime mismatch")
	}
}

// freshTotal is TotalComputeTime's defining sum, in its association.
func freshTotal(p *Profile, w int) float64 {
	s := 0.0
	for j := 0; j < p.L; j++ {
		s += p.FP[w][j] + p.BP[w][j]
	}
	return s
}

// TestTotalComputeTimeMatchesSum: the totals ObserveInto sums once per
// fill are bitwise the defining sum across refills of one destination —
// noisy timings, a contended GPU, a different cluster shape — and a
// hand-built profile, or a copy whose FP rows were replaced, still sums.
func TestTotalComputeTimeMatchesSum(t *testing.T) {
	check := func(p *Profile, when string) {
		t.Helper()
		for w := 0; w < p.N; w++ {
			got, want := p.TotalComputeTime(w), freshTotal(p, w)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: worker %d total %v, fresh sum %v", when, w, got, want)
			}
		}
	}
	m := model.BERT48()
	cl := cluster.Testbed(cluster.Gbps(25))
	pr := NewProfiler(m, cl)
	pr.SetNoise(rand.New(rand.NewSource(3)), 0.2)
	dst := new(Profile)
	for i := 0; i < 6; i++ {
		if i == 3 {
			cl.AddCompetingJob()
		}
		pr.ObserveInto(dst)
		if dst.totalsOf == nil {
			t.Fatal("ObserveInto left no cached totals")
		}
		check(dst, "refill")
	}
	// A new cluster shape re-carves the rows; the totals follow.
	other := NewProfiler(m, cluster.NewCluster(cluster.Config{Servers: 3, GPUsPerServer: 2, GPUType: cluster.P100}))
	other.ObserveInto(dst)
	check(dst, "reshaped refill")

	// A copy sharing the fill's rows may use its totals; replacing the
	// rows must not.
	cp := *dst
	cp.FP = make([][]float64, dst.N)
	for w := range cp.FP {
		cp.FP[w] = make([]float64, dst.L)
		for j := range cp.FP[w] {
			cp.FP[w][j] = float64(w + j)
		}
	}
	check(&cp, "copy with replaced rows")

	hand := &Profile{L: 2, N: 1, FP: [][]float64{{0.1, 0.2}}, BP: [][]float64{{0.3, 0.7}}}
	check(hand, "hand-built")
}

func TestNoiseInjection(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	pr := NewProfiler(model.AlexNet(), cl)
	_ = pr.SetSmoothing(1)
	pr.SetNoise(rand.New(rand.NewSource(1)), 0.2)
	a := pr.Observe()
	b := pr.Observe()
	if a.FP[0][0] == b.FP[0][0] {
		t.Fatal("noise produced identical observations")
	}
}

func TestEWMASuppressesNoise(t *testing.T) {
	// Under measurement noise, the smoothed profiler's observations of a
	// static environment must vary less than the unsmoothed ones.
	variance := func(alpha float64) float64 {
		cl := cluster.Testbed(cluster.Gbps(25))
		pr := NewProfiler(model.AlexNet(), cl)
		if err := pr.SetSmoothing(alpha); err != nil {
			t.Fatal(err)
		}
		pr.SetNoise(rand.New(rand.NewSource(7)), 0.3)
		var xs []float64
		for i := 0; i < 60; i++ {
			xs = append(xs, pr.Observe().FP[0][0])
		}
		xs = xs[20:] // drop warmup
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		v := 0.0
		for _, x := range xs {
			v += (x - mean) * (x - mean)
		}
		return v / float64(len(xs))
	}
	raw := variance(1)
	smoothed := variance(0.2)
	if smoothed >= raw/2 {
		t.Fatalf("EWMA did not suppress noise: raw var %v, smoothed %v", raw, smoothed)
	}
}

func TestNoiseZeroSigmaDisabled(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	pr := NewProfiler(model.AlexNet(), cl)
	_ = pr.SetSmoothing(1)
	pr.SetNoise(rand.New(rand.NewSource(1)), 0)
	a := pr.Observe()
	b := pr.Observe()
	if a.FP[0][0] != b.FP[0][0] {
		t.Fatal("sigma=0 still produced noise")
	}
}

func TestProfileTopology(t *testing.T) {
	cl := cluster.NewCluster(cluster.Config{
		Servers: 4, GPUsPerServer: 4, GPUType: cluster.V100,
		NICBwBps: cluster.Gbps(40), Racks: 2, RackUplinkBps: cluster.Gbps(10),
	})
	p := NewProfiler(model.AlexNet(), cl).Observe()
	if len(p.Server) != 16 || len(p.Rack) != 16 {
		t.Fatalf("topology lengths %d/%d", len(p.Server), len(p.Rack))
	}
	// 4 GPUs per server: workers 0-3 on server 0, 4-7 on server 1.
	if p.Server[3] != 0 || p.Server[4] != 1 {
		t.Fatalf("server mapping wrong: %v", p.Server[:8])
	}
	// Round-robin racks: server 0 → rack 0, server 1 → rack 1.
	if p.Rack[0] != 0 || p.Rack[4] != 1 {
		t.Fatalf("rack mapping wrong: %v", p.Rack[:8])
	}
}

// sameProfile reports the first field where a and b differ bitwise.
func sameProfile(a, b *Profile) string {
	if a.L != b.L || a.N != b.N || a.Epoch != b.Epoch ||
		math.Float64bits(a.LineRateBps) != math.Float64bits(b.LineRateBps) {
		return "scalars"
	}
	eqF := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	eqI := func(x, y []int64) bool { return slices.Equal(x, y) }
	switch {
	case !eqI(a.OutBytes, b.OutBytes), !eqI(a.GradBytes, b.GradBytes), !eqI(a.ParamBytes, b.ParamBytes):
		return "static bytes"
	case !eqF(a.Bandwidth, b.Bandwidth):
		return "bandwidth"
	case !slices.Equal(a.Server, b.Server), !slices.Equal(a.Rack, b.Rack):
		return "topology"
	case len(a.FP) != len(b.FP) || len(a.BP) != len(b.BP):
		return "FP/BP rows"
	}
	for w := range a.FP {
		if !eqF(a.FP[w], b.FP[w]) || !eqF(a.BP[w], b.BP[w]) {
			return "FP/BP"
		}
	}
	return ""
}

// TestObserveIntoMatchesObserve refills one Profile through a churn
// trace with measurement noise and checks every refill against a fresh
// Observe from a twin profiler, bit for bit. Earlier fresh values must
// stay untouched by later observations.
func TestObserveIntoMatchesObserve(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	tr := trace.Churn(rand.New(rand.NewSource(9)), trace.ChurnConfig{
		Duration: 60, MeanArrival: 4, MeanLifetime: 8,
		BandwidthLevelsGbps: []float64{10, 25, 40, 100}, MeanBandwidthHold: 5,
	}).Sorted()
	m := model.ResNet50()
	fresh, reused := NewProfiler(m, cl), NewProfiler(m, cl)
	fresh.SetNoise(rand.New(rand.NewSource(5)), 0.1)
	reused.SetNoise(rand.New(rand.NewSource(5)), 0.1)
	var dst Profile
	var first *Profile
	var firstFP float64
	next := 0
	for it := 0; it < 300; it++ {
		now := 0.2 * float64(it)
		for ; next < len(tr) && tr[next].At <= now; next++ {
			tr[next].Apply(cl)
		}
		want := fresh.Observe()
		got := reused.ObserveInto(&dst)
		if got != &dst {
			t.Fatal("ObserveInto did not return its destination")
		}
		if diff := sameProfile(got, want); diff != "" {
			t.Fatalf("iteration %d: reused profile differs from fresh in %s", it, diff)
		}
		if first == nil {
			first, firstFP = want, want.FP[3][7]
		}
	}
	if next < 5 {
		t.Fatalf("only %d churn events applied", next)
	}
	if first.FP[3][7] != firstFP {
		t.Fatal("a later Observe mutated an earlier fresh Profile")
	}
}

// TestObserveIntoZeroAllocs pins the steady state: refilling a Profile
// of the right shape allocates nothing, noise and estimators included.
func TestObserveIntoZeroAllocs(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	eng := sim.NewEngine()
	net := netsim.New(eng, cl)
	for _, estimated := range []bool{false, true} {
		pr := NewProfiler(model.VGG16(), cl)
		pr.SetNoise(rand.New(rand.NewSource(1)), 0.05)
		if estimated {
			pr.AttachNetwork(net)
		}
		var dst Profile
		pr.ObserveInto(&dst)
		if allocs := testing.AllocsPerRun(200, func() { pr.ObserveInto(&dst) }); allocs != 0 {
			t.Fatalf("estimated=%v: ObserveInto allocated %.1f allocs/op, want 0", estimated, allocs)
		}
	}
}
