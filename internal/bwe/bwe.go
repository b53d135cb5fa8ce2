// Package bwe estimates the bandwidth available to a training job on one
// NIC from nothing but the job's own flow-completion observations —
// bytes, request time, arrival time. It is the measurement layer the
// paper's "imperfect metrics" tolerance claim is tested against: the
// profiler feeds the meta-network these estimates instead of the
// simulator's ground truth.
//
// The design follows Google Congestion Control, adapted from per-packet
// feedback to per-flow completions:
//
//   - a trendline filter: an exponentially smoothed per-megabit transfer
//     latency, linearly regressed against arrival time over a sliding
//     window. A positive slope means transfers are getting slower at
//     constant volume — a queue is building somewhere on the path;
//   - an overuse detector: the latency slope (normalized to fractional
//     growth per second so it is scale-free) compared against an
//     adaptive threshold, with a sustain count so single noisy
//     observations do not trip it;
//   - an AIMD rate controller: multiplicative decrease to β × the
//     measured throughput on overuse, then slow-start-style
//     multiplicative increase while far below the last stable point and
//     gentle additive increase near it;
//   - an EWMA throughput floor and a measured-throughput ceiling: the
//     estimate may never fall below what the job demonstrably achieved,
//     nor claim more than a small headroom above it.
//
// Unlike a real congestion controller the estimator is passive — the
// pipeline's transfer schedule, not the estimate, decides what is sent.
// The AIMD machinery shapes how fast the estimate tracks the (unseen)
// truth: collapse on congestion onset, cautious recovery after it.
//
// The estimator is allocation-free in steady state: all windows are
// fixed-size rings owned by the struct. Each observation walks the
// in-horizon part of the ring once, newest first, for both the
// throughput window and the trendline.
package bwe

import "math"

// window is the ring capacity: observations retained for the trendline
// regression and throughput accounting.
const window = 32

// State is the overuse detector's signal.
type State uint8

// Detector states.
const (
	// Normal: no delay trend either way; the controller may increase.
	Normal State = iota
	// Overuse: transfer latency is growing — back off.
	Overuse
	// Underuse: latency is falling (a queue draining) — hold while it
	// empties so the estimate does not overshoot.
	Underuse
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Overuse:
		return "overuse"
	case Underuse:
		return "underuse"
	default:
		return "normal"
	}
}

// Obs is one flow-completion observation attributed to this NIC.
type Obs struct {
	// AtSec is the observation (completion) time in seconds on the
	// caller's clock.
	AtSec float64
	// Seconds is the request→last-bit transfer latency.
	Seconds float64
	// Bits is the transfer volume.
	Bits float64
}

// Config parametrises an Estimator. Zero values select defaults.
type Config struct {
	// InitialBps seeds the estimate. The NIC line rate is the natural
	// seed: hardware specs are known, the available fraction is not.
	InitialBps float64
	// MinBps / MaxBps clamp the estimate (defaults 1 Mbps and the
	// larger of 400 Gbps and 4 × InitialBps — a sanity bound, not a
	// model of the NIC: a low seed must not cap recovery).
	MinBps, MaxBps float64
	// Beta is the multiplicative-decrease factor applied to measured
	// throughput on overuse (default 0.85).
	Beta float64
	// Headroom caps the estimate at Headroom × measured throughput: the
	// job cannot claim much more than it has recently seen delivered
	// (default 1.1).
	Headroom float64
	// FloorAlpha is the EWMA coefficient of the throughput floor
	// (default 0.15).
	FloorAlpha float64
	// AdditiveGainPerSec is the near-capacity fractional growth rate of
	// the estimate (default 0.05/s); SlowStartGainPerSec the fractional
	// growth rate while far below the last stable point (default
	// 0.7/s — roughly doubling per 1.4s).
	AdditiveGainPerSec, SlowStartGainPerSec float64
	// TrendWindowSec bounds how old an observation may be and still
	// enter the trendline regression and throughput window (default 4s).
	TrendWindowSec float64
	// OveruseSustain is how many consecutive over-threshold slopes
	// trigger Overuse (default 3).
	OveruseSustain int
}

func (c *Config) defaults() {
	if c.InitialBps == 0 {
		c.InitialBps = 10e9
	}
	if c.MinBps == 0 {
		c.MinBps = 1e6
	}
	if c.MaxBps == 0 {
		c.MaxBps = 400e9
		if m := 4 * c.InitialBps; m > c.MaxBps {
			c.MaxBps = m
		}
	}
	if c.Beta == 0 {
		c.Beta = 0.85
	}
	if c.Headroom == 0 {
		c.Headroom = 1.1
	}
	if c.FloorAlpha == 0 {
		c.FloorAlpha = 0.15
	}
	if c.AdditiveGainPerSec == 0 {
		c.AdditiveGainPerSec = 0.05
	}
	if c.SlowStartGainPerSec == 0 {
		c.SlowStartGainPerSec = 0.7
	}
	if c.TrendWindowSec == 0 {
		c.TrendWindowSec = 4
	}
	if c.OveruseSustain == 0 {
		c.OveruseSustain = 3
	}
}

// Adaptive-threshold bounds for the normalized latency slope
// (fractional latency growth per second).
const (
	gammaInit = 0.15
	gammaMin  = 0.05
	gammaMax  = 0.6
	// Threshold adaptation gains: up slowly (stay sensitive through an
	// event), down slowly (tolerate a noisy baseline).
	gammaUp   = 0.1
	gammaDown = 0.05
)

// Estimator tracks one NIC. Not safe for concurrent use.
type Estimator struct {
	cfg Config

	est  float64 // current estimate, bits/sec
	last float64 // previous observation's AtSec (increase-phase dt)

	// Observation rings (parallel, fixed-size).
	at   [window]float64 // completion times
	lat  [window]float64 // smoothed per-Mbit latency, sec
	rate [window]float64 // achieved per-flow rate, bits/sec
	bits [window]float64 // volume
	n    int             // valid entries (≤ window)
	head int             // next write slot

	smoothLat float64 // EWMA of per-Mbit latency feeding the ring
	ewmaRate  float64 // EWMA throughput floor, bits/sec

	gamma   float64 // adaptive overuse threshold
	state   State
	overCnt int // consecutive over-threshold slopes

	// lastStable remembers the throughput at the last multiplicative
	// decrease: below 80% of it the controller slow-starts, near it it
	// probes additively.
	lastStable float64

	// Telemetry mirrors (Snapshot).
	slope        float64
	aggRate      float64
	windowMax    float64
	observations uint64
}

// New builds an estimator.
func New(cfg Config) *Estimator {
	cfg.defaults()
	return &Estimator{cfg: cfg, est: cfg.InitialBps, gamma: gammaInit, last: math.NaN()}
}

// Reset re-seeds the estimator (e.g. after the NIC itself was replaced)
// without reallocating.
func (e *Estimator) Reset() {
	e.est = e.cfg.InitialBps
	e.n, e.head = 0, 0
	e.smoothLat, e.ewmaRate = 0, 0
	e.gamma, e.state, e.overCnt = gammaInit, Normal, 0
	e.lastStable = 0
	e.slope, e.aggRate, e.windowMax = 0, 0, 0
	e.observations = 0
	e.last = math.NaN()
}

// EstimateBps returns the current available-bandwidth estimate.
func (e *Estimator) EstimateBps() float64 { return e.est }

// State returns the overuse detector's current signal.
func (e *Estimator) State() State { return e.state }

// Observations returns how many samples the estimator has consumed.
func (e *Estimator) Observations() uint64 { return e.observations }

// Snapshot is a telemetry view of the estimator's internals.
type Snapshot struct {
	EstimateBps float64
	State       State
	// SlopePerSec is the normalized latency slope (fractional growth
	// per second); Gamma its adaptive threshold.
	SlopePerSec, Gamma float64
	// FloorBps is the EWMA throughput floor; AggRateBps the aggregate
	// delivered rate over the trend window; WindowMaxBps the best
	// per-flow rate in the window.
	FloorBps, AggRateBps, WindowMaxBps float64
	Observations                       uint64
}

// Snapshot returns the estimator's telemetry view.
func (e *Estimator) Snapshot() Snapshot {
	return Snapshot{
		EstimateBps: e.est, State: e.state,
		SlopePerSec: e.slope, Gamma: e.gamma,
		FloorBps: e.ewmaRate, AggRateBps: e.aggRate, WindowMaxBps: e.windowMax,
		Observations: e.observations,
	}
}

// Observe consumes one flow completion and updates the estimate.
// Degenerate observations (no volume, no elapsed time) are ignored.
func (e *Estimator) Observe(o Obs) {
	if o.Bits <= 0 || o.Seconds <= 0 {
		return
	}
	e.observations++
	r := o.Bits / o.Seconds
	// Per-megabit latency, smoothed: the trendline filter's y-value.
	// Normalizing by volume makes transfers of different sizes
	// comparable; the EWMA suppresses single-flow jitter.
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

	e.scan(o.AtSec)
	e.control(o.AtSec)
	e.last = o.AtSec
}

// scan walks the in-horizon observations once for both consumers: the
// throughput window (aggregate delivered rate and best per-flow rate)
// and the trendline overuse detector. The aggregate matters when the
// job's own flows share the NIC: two concurrent transfers at half rate
// still prove the full rate is available.
//
// The ring is read newest-first from head-1, and the walk stops at the
// first observation older than the horizon. A second pass over that
// same prefix needs the first pass's results (the oldest instant, the
// regression means); every sum keeps the newest-first order.
func (e *Estimator) scan(now float64) {
	horizon := now - e.cfg.TrendWindowSec
	var max, sx, sy float64
	oldest := now
	cnt := 0
	for i, idx := 0, e.head; i < e.n; i++ {
		if idx--; idx < 0 {
			idx = window - 1
		}
		at := e.at[idx]
		if at < horizon {
			break
		}
		if e.rate[idx] > max {
			max = e.rate[idx]
		}
		if at < oldest {
			oldest = at
		}
		sx += at
		sy += e.lat[idx]
		cnt++
	}
	trend := cnt >= 6 && sy > 0
	mx, my := sx/float64(cnt), sy/float64(cnt)
	var bits, num, den float64
	for i, idx := 0, e.head; i < cnt; i++ {
		if idx--; idx < 0 {
			idx = window - 1
		}
		at := e.at[idx]
		// Aggregate over (oldest, now]: volume completing AT the window's
		// oldest instant was delivered before it and must not count, or
		// two same-instant completions would double the apparent rate.
		if at > oldest {
			bits += e.bits[idx]
		}
		if trend {
			dx := at - mx
			num += dx * (e.lat[idx] - my)
			den += dx * dx
		}
	}
	e.windowMax = max
	if span := now - oldest; span >= 1e-3 {
		e.aggRate = bits / span
	} else {
		e.aggRate = 0
	}
	if !trend {
		return // not enough signal; keep previous state
	}
	if den < 1e-12 {
		return // all observations at one instant: no trend information
	}
	e.detect((num / den) / my)
}

// detect runs the adaptive-threshold overuse detector on the trendline's
// least-squares slope, normalized to fractional latency growth per
// second: scale-free across 10G and 100G fabrics.
func (e *Estimator) detect(slope float64) {
	e.slope = slope

	abs := e.slope
	if abs < 0 {
		abs = -abs
	}
	switch {
	case e.slope > e.gamma:
		e.overCnt++
		if e.overCnt >= e.cfg.OveruseSustain {
			e.state = Overuse
		}
	case e.slope < -e.gamma:
		e.overCnt = 0
		e.state = Underuse
	default:
		e.overCnt = 0
		e.state = Normal
	}
	// Adapt the threshold toward the observed slope magnitude: tolerate
	// persistent benign drift, stay sensitive when the path is quiet.
	// Dramatic excursions (a real congestion event, not drift) are
	// excluded or they would desensitise the detector mid-event.
	if abs <= 3*e.gamma {
		k := gammaDown
		if abs > e.gamma {
			k = gammaUp
		}
		e.gamma += k * (abs - e.gamma)
	}
	if e.gamma < gammaMin {
		e.gamma = gammaMin
	}
	if e.gamma > gammaMax {
		e.gamma = gammaMax
	}
}

// control applies the AIMD update for the detector's state, then the
// floor and ceiling.
func (e *Estimator) control(now float64) {
	// Truth anchor: the smoothed per-flow rate (robust to single-flow
	// noise) or the aggregate across concurrent flows, whichever proves
	// more. The windowed per-flow max is deliberately NOT used — one
	// lucky noisy sample would inflate the ceiling for a whole window.
	measured := e.ewmaRate
	if e.aggRate > measured {
		measured = e.aggRate
	}
	switch e.state {
	case Overuse:
		// Multiplicative decrease onto the measured throughput, not the
		// previous estimate: the measurement is the truth anchor.
		target := e.cfg.Beta * measured
		if target < e.est {
			e.est = target
			e.lastStable = measured
		}
		e.overCnt = 0
	case Underuse:
		// Hold while the queue drains.
	default:
		dt := 0.0
		if !math.IsNaN(e.last) && now > e.last {
			dt = now - e.last
		}
		if dt > 0 {
			gain := e.cfg.AdditiveGainPerSec
			if e.lastStable == 0 || e.est < 0.8*e.lastStable {
				// Far from the last known stable point (or never
				// congested): slow-start-style multiplicative probing.
				gain = e.cfg.SlowStartGainPerSec
			}
			growth := gain * dt
			if growth > 0.5 {
				growth = 0.5 // bound a single step after a long gap
			}
			e.est *= 1 + growth
		}
	}
	// Floor: the job demonstrably achieved ewmaRate; at least that much
	// is available. This also snaps the estimate back up quickly when a
	// flapped NIC recovers and transfers speed up again.
	if e.est < e.ewmaRate {
		e.est = e.ewmaRate
	}
	// Ceiling: never claim more than a small headroom over anything
	// measured recently.
	if ceil := e.cfg.Headroom * measured; measured > 0 && e.est > ceil {
		e.est = ceil
	}
	if e.est < e.cfg.MinBps {
		e.est = e.cfg.MinBps
	}
	if e.est > e.cfg.MaxBps {
		e.est = e.cfg.MaxBps
	}
}
