package bwe

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// feed generates flow completions from a synthetic link: transfers of
// `bytes` bytes run back-to-back at `availBps` with multiplicative noise
// and `extraLatSec` of fixed queue/propagation delay per flow, starting
// at *now. It advances *now and returns the last observation time.
func feed(e *Estimator, rng *rand.Rand, now *float64, n int, bytes, availBps, noise, extraLatSec float64) {
	for i := 0; i < n; i++ {
		rate := availBps
		if noise > 0 {
			rate *= math.Exp(rng.NormFloat64() * noise)
		}
		sec := bytes*8/rate + extraLatSec
		*now += sec
		e.Observe(Obs{AtSec: *now, Seconds: sec, Bits: bytes * 8})
	}
}

func TestConvergesToAvailableBandwidth(t *testing.T) {
	for _, avail := range []float64{1e9, 7e9, 40e9} {
		e := New(Config{InitialBps: 100e9})
		rng := rand.New(rand.NewSource(7))
		now := 0.0
		feed(e, rng, &now, 100, 8e6, avail, 0.05, 0)
		got := e.EstimateBps()
		if err := math.Abs(got-avail) / avail; err > 0.15 {
			t.Errorf("avail %.0g: estimate %.3g, rel err %.2f > 0.15", avail, got, err)
		}
	}
}

func TestEstimateSeededAtLineRateBeforeObservations(t *testing.T) {
	e := New(Config{InitialBps: 25e9})
	if e.EstimateBps() != 25e9 {
		t.Fatalf("unseeded estimate = %v, want the 25G line rate", e.EstimateBps())
	}
	if e.State() != Normal {
		t.Fatalf("initial state = %v, want normal", e.State())
	}
}

func TestCongestionOnsetTriggersOveruseAndBackoff(t *testing.T) {
	e := New(Config{InitialBps: 10e9})
	rng := rand.New(rand.NewSource(1))
	now := 0.0
	feed(e, rng, &now, 60, 8e6, 10e9, 0.02, 0)
	clean := e.EstimateBps()
	// Congestion: achieved rate halves AND per-flow latency keeps
	// growing (a standing queue building 2ms per flow).
	extra := 0.0
	for i := 0; i < 40; i++ {
		extra += 0.002
		feed(e, rng, &now, 1, 8e6, 5e9, 0.02, extra)
	}
	if e.EstimateBps() > 0.8*clean {
		t.Fatalf("estimate %.3g did not back off from %.3g under congestion", e.EstimateBps(), clean)
	}
}

func TestSlowStartAfterFlapRecovers(t *testing.T) {
	e := New(Config{InitialBps: 100e9})
	rng := rand.New(rand.NewSource(3))
	now := 0.0
	// Steady at 80G.
	feed(e, rng, &now, 80, 64e6, 80e9, 0.03, 0)
	// NIC flaps down to 8G: transfers crawl, latency explodes.
	feed(e, rng, &now, 40, 64e6, 8e9, 0.03, 0)
	low := e.EstimateBps()
	if lerr := math.Abs(low-8e9) / 8e9; lerr > 0.25 {
		t.Fatalf("post-flap estimate %.3g not near 8G (rel err %.2f)", low, lerr)
	}
	// Flap ends: full rate again. The floor plus slow-start must
	// re-converge, not crawl additively from 8G to 80G.
	feed(e, rng, &now, 60, 64e6, 80e9, 0.03, 0)
	got := e.EstimateBps()
	if err := math.Abs(got-80e9) / 80e9; err > 0.15 {
		t.Fatalf("recovered estimate %.3g, rel err %.2f > 0.15", got, err)
	}
}

func TestConcurrentFlowsProveAggregateRate(t *testing.T) {
	// Two flows share a 10G NIC: each observes 5G, but together they
	// deliver 10G. The aggregate window must keep the estimate near 10G,
	// not collapse to ~5G.
	e := New(Config{InitialBps: 10e9})
	now := 0.0
	for i := 0; i < 60; i++ {
		// Both transfers span the same second, each moving 5e9 bits.
		now += 1.0
		e.Observe(Obs{AtSec: now, Seconds: 1.0, Bits: 5e9})
		e.Observe(Obs{AtSec: now, Seconds: 1.0, Bits: 5e9})
	}
	got := e.EstimateBps()
	if err := math.Abs(got-10e9) / 10e9; err > 0.15 {
		t.Errorf("estimate %.3g for shared 10G NIC, rel err %.2f > 0.15", got, err)
	}
}

func TestUnderuseHoldsWhileQueueDrains(t *testing.T) {
	e := New(Config{InitialBps: 10e9})
	rng := rand.New(rand.NewSource(5))
	now := 0.0
	// Build a latency ramp (queue growing), then let it fall sharply.
	extra := 0.0
	for i := 0; i < 30; i++ {
		extra += 0.004
		feed(e, rng, &now, 1, 8e6, 9e9, 0.01, extra)
	}
	for i := 0; i < 18; i++ {
		extra *= 0.7
		feed(e, rng, &now, 1, 8e6, 9e9, 0.01, extra)
	}
	if e.State() != Underuse {
		t.Fatalf("state %v after sharp latency drop, want underuse", e.State())
	}
}

func TestDegenerateObservationsIgnored(t *testing.T) {
	e := New(Config{InitialBps: 10e9})
	e.Observe(Obs{AtSec: 1, Seconds: 0, Bits: 1e6})
	e.Observe(Obs{AtSec: 2, Seconds: 0.5, Bits: 0})
	e.Observe(Obs{AtSec: 3, Seconds: -1, Bits: -5})
	if e.Observations() != 0 {
		t.Fatalf("degenerate observations counted: %d", e.Observations())
	}
	if e.EstimateBps() != 10e9 {
		t.Fatalf("estimate moved on degenerate input: %v", e.EstimateBps())
	}
}

func TestResetRestoresSeed(t *testing.T) {
	e := New(Config{InitialBps: 10e9})
	rng := rand.New(rand.NewSource(2))
	now := 0.0
	feed(e, rng, &now, 50, 8e6, 2e9, 0.05, 0)
	if e.EstimateBps() > 5e9 {
		t.Fatalf("estimate %v did not track 2G link", e.EstimateBps())
	}
	e.Reset()
	if e.EstimateBps() != 10e9 || e.Observations() != 0 {
		t.Fatalf("Reset did not restore seed: est=%v obs=%d", e.EstimateBps(), e.Observations())
	}
}

// Property: for any steady link in a realistic range, with moderate
// noise, the estimate lands within 15% and never exceeds the clamps.
func TestQuickSteadyStateConvergence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		avail := 1e9 * (1 + 99*rng.Float64()) // 1–100 Gbps
		init := 1e9 * (1 + 99*rng.Float64())
		e := New(Config{InitialBps: init})
		now := rng.Float64() * 1000
		feed(e, rng, &now, 120, 4e6+60e6*rng.Float64(), avail, 0.04, 0)
		got := e.EstimateBps()
		if got < e.cfg.MinBps || got > e.cfg.MaxBps {
			return false
		}
		return math.Abs(got-avail)/avail <= 0.15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: a capacity drop at any point is tracked downward — the
// estimate after sustained slow observations may not stay near the old
// fast rate.
func TestQuickTracksCapacityDrop(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		hi := 20e9 * (1 + 4*rng.Float64())
		lo := hi * (0.05 + 0.15*rng.Float64())
		e := New(Config{InitialBps: hi})
		now := 0.0
		feed(e, rng, &now, 50+rng.Intn(50), 16e6, hi, 0.03, 0)
		feed(e, rng, &now, 60, 16e6, lo, 0.03, 0)
		return e.EstimateBps() <= 1.3*lo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEstimatorZeroAllocsSteadyState pins the allocation-free contract:
// once constructed, Observe/EstimateBps/Snapshot never allocate.
func TestEstimatorZeroAllocsSteadyState(t *testing.T) {
	e := New(Config{InitialBps: 10e9})
	now := 0.0
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		i++
		now += 0.01
		e.Observe(Obs{AtSec: now, Seconds: 0.01 * (1 + 0.1*float64(i%7)), Bits: 8e7})
		_ = e.EstimateBps()
		_ = e.Snapshot()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Observe allocated %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkEstimatorObserve(b *testing.B) {
	e := New(Config{InitialBps: 10e9})
	now := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 0.01
		e.Observe(Obs{AtSec: now, Seconds: 0.01 * (1 + 0.1*float64(i%7)), Bits: 8e7})
	}
	if e.EstimateBps() <= 0 {
		b.Fatal("estimate collapsed")
	}
}

// oracleObserve is Observe as it stood before the window scan was fused:
// measureWindow and detect each walk the ring twice with a modulo index.
// It is kept as the reference the fused scan must match bit for bit.
func oracleObserve(e *Estimator, o Obs) {
	if o.Bits <= 0 || o.Seconds <= 0 {
		return
	}
	e.observations++
	r := o.Bits / o.Seconds
	l := o.Seconds / (o.Bits / 1e6)
	if e.smoothLat == 0 {
		e.smoothLat = l
	} else {
		e.smoothLat = 0.3*l + 0.7*e.smoothLat
	}
	e.at[e.head], e.lat[e.head], e.rate[e.head], e.bits[e.head] = o.AtSec, e.smoothLat, r, o.Bits
	e.head = (e.head + 1) % window
	if e.n < window {
		e.n++
	}
	if e.ewmaRate == 0 {
		e.ewmaRate = r
	} else {
		e.ewmaRate = e.cfg.FloorAlpha*r + (1-e.cfg.FloorAlpha)*e.ewmaRate
	}
	oracleMeasureWindow(e, o.AtSec)
	oracleDetect(e, o.AtSec)
	e.control(o.AtSec)
	e.last = o.AtSec
}

func oracleMeasureWindow(e *Estimator, now float64) {
	horizon := now - e.cfg.TrendWindowSec
	var max, oldest float64
	oldest = now
	for i := 0; i < e.n; i++ {
		idx := (e.head - 1 - i + window + window) % window
		if e.at[idx] < horizon {
			break
		}
		if e.rate[idx] > max {
			max = e.rate[idx]
		}
		if e.at[idx] < oldest {
			oldest = e.at[idx]
		}
	}
	var bits float64
	for i := 0; i < e.n; i++ {
		idx := (e.head - 1 - i + window + window) % window
		if e.at[idx] < horizon {
			break
		}
		if e.at[idx] > oldest {
			bits += e.bits[idx]
		}
	}
	e.windowMax = max
	if span := now - oldest; span >= 1e-3 {
		e.aggRate = bits / span
	} else {
		e.aggRate = 0
	}
}

func oracleDetect(e *Estimator, now float64) {
	horizon := now - e.cfg.TrendWindowSec
	var sx, sy float64
	cnt := 0
	for i := 0; i < e.n; i++ {
		idx := (e.head - 1 - i + window + window) % window
		if e.at[idx] < horizon {
			break
		}
		sx += e.at[idx]
		sy += e.lat[idx]
		cnt++
	}
	if cnt < 6 || sy <= 0 {
		return
	}
	mx, my := sx/float64(cnt), sy/float64(cnt)
	var num, den float64
	for i := 0; i < cnt; i++ {
		idx := (e.head - 1 - i + window + window) % window
		dx := e.at[idx] - mx
		num += dx * (e.lat[idx] - my)
		den += dx * dx
	}
	if den < 1e-12 {
		return
	}
	e.detect((num / den) / my)
}

// randomObs draws one observation for the oracle comparison. The clock
// mostly advances, but also repeats instants (same-instant completions),
// steps backwards (non-monotone AtSec) and jumps past the trend window;
// volumes and latencies span congestion onsets and recoveries.
func randomObs(rng *rand.Rand, now *float64) Obs {
	switch k := rng.Intn(20); {
	case k < 3: // same instant as the previous completion
	case k < 5:
		*now -= rng.Float64() * 0.5
	case k < 6:
		*now += 3 + rng.Float64()*3
	default:
		*now += rng.ExpFloat64() * 0.05
	}
	bits := 8 * math.Exp(12+6*rng.Float64())
	if rng.Intn(30) == 0 {
		bits = 0 // degenerate, ignored by both
	}
	rate := 1e9 * math.Exp(3*rng.Float64())
	return Obs{AtSec: *now, Seconds: bits/rate + 1e-4*rng.Float64(), Bits: bits}
}

// TestScanMatchesOracle pins the fused single-walk window scan to the
// four-pass original: every estimate and every telemetry snapshot must
// be bitwise equal over random sequences.
func TestScanMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{InitialBps: 25e9}
		if seed%3 == 0 {
			cfg.TrendWindowSec = 0.5
		}
		got, want := New(cfg), New(cfg)
		now := 0.0
		for i := 0; i < 600; i++ {
			o := randomObs(rng, &now)
			got.Observe(o)
			oracleObserve(want, o)
			if got.EstimateBps() != want.EstimateBps() || got.Snapshot() != want.Snapshot() {
				t.Fatalf("seed %d obs %d (%+v): fused %+v, oracle %+v",
					seed, i, o, got.Snapshot(), want.Snapshot())
			}
		}
	}
}

// TestObserveZeroAllocs holds Observe to the package's allocation-free
// promise on the full path: a full ring, overuse and underuse phases,
// non-monotone and same-instant completions.
func TestObserveZeroAllocs(t *testing.T) {
	e := New(Config{InitialBps: 25e9})
	rng := rand.New(rand.NewSource(3))
	now := 0.0
	obs := make([]Obs, 4096)
	for i := range obs {
		obs[i] = randomObs(rng, &now)
	}
	i := 0
	allocs := testing.AllocsPerRun(len(obs)-1, func() {
		e.Observe(obs[i])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Observe allocated %.1f allocs/op, want 0", allocs)
	}
}
