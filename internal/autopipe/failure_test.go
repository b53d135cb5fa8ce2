package autopipe

import (
	"context"
	"slices"
	"testing"

	"autopipe/internal/cluster"
	"autopipe/internal/model"
	"autopipe/internal/netsim"
	"autopipe/internal/partition"
	"autopipe/internal/pipeline"
	"autopipe/internal/profile"
	"autopipe/internal/sim"
	"autopipe/internal/trace"
)

// failEvent throttles one GPU so hard the controller must treat it as
// failed (20 competing jobs → 1/21 share → 21× slowdown > threshold 8×).
func failEvent(gpu int, at float64) trace.Event {
	return trace.Event{At: at, Kind: trace.DegradeGPU, Server: gpu, Value: 20}
}

func TestFailedWorkerEvicted(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	_, c := runJob(t, Config{
		Model: model.AlexNet(), Cluster: cl,
		Workers: []int{0, 1, 2, 3}, CheckEvery: 3,
	}, trace.Trace{failEvent(2, 1.0)}, 40)
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Stats().Evictions)
	}
	final := c.Plan()
	for _, w := range final.AllWorkers() {
		if w == 2 {
			t.Fatalf("failed worker still in plan %s", final)
		}
	}
	if err := final.Validate(c.cfg.Model.NumLayers(), cl.NumGPUs()); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionBeatsLimpingAlong(t *testing.T) {
	mk := func(disable bool) float64 {
		cl := cluster.Testbed(cluster.Gbps(25))
		wall, _ := runJob(t, Config{
			Model: model.AlexNet(), Cluster: cl,
			Workers: []int{0, 1, 2, 3}, CheckEvery: 3,
			DisableReconfig: disable,
		}, trace.Trace{failEvent(1, 1.0)}, 30)
		return wall
	}
	frozen := mk(true)
	adaptive := mk(false)
	if adaptive >= frozen {
		t.Fatalf("eviction (%v) not faster than limping with a failed worker (%v)", adaptive, frozen)
	}
}

func TestNoFalseEvictionUnderUniformContention(t *testing.T) {
	// A job landing on EVERY GPU slows all workers equally — nobody is
	// an outlier, so nobody gets evicted.
	cl := cluster.Testbed(cluster.Gbps(25))
	_, c := runJob(t, Config{
		Model: model.AlexNet(), Cluster: cl,
		Workers: []int{0, 1, 2, 3}, CheckEvery: 3,
	}, trace.Trace{{At: 1, Kind: trace.AddJob}}, 30)
	if c.Stats().Evictions != 0 {
		t.Fatalf("false eviction under uniform contention: %d", c.Stats().Evictions)
	}
}

func TestNoFalseEvictionUnderMildSkew(t *testing.T) {
	// A 2× slowdown on one worker is contention, not failure.
	cl := cluster.Testbed(cluster.Gbps(25))
	_, c := runJob(t, Config{
		Model: model.AlexNet(), Cluster: cl,
		Workers: []int{0, 1, 2, 3}, CheckEvery: 3,
	}, trace.Trace{{At: 1, Kind: trace.DegradeGPU, Server: 2, Value: 1}}, 30)
	if c.Stats().Evictions != 0 {
		t.Fatalf("false eviction on a 2x-slow worker: %d", c.Stats().Evictions)
	}
}

func TestRecoveryAfterTwoFailures(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	_, c := runJob(t, Config{
		Model: model.AlexNet(), Cluster: cl,
		Workers: []int{0, 1, 2, 3, 4, 5}, CheckEvery: 3,
	}, trace.Trace{failEvent(1, 0.5), failEvent(4, 2.0)}, 50)
	if c.Stats().Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", c.Stats().Evictions)
	}
	for _, w := range c.Plan().AllWorkers() {
		if w == 1 || w == 4 {
			t.Fatalf("failed worker %d still in plan", w)
		}
	}
}

func TestMedianHalfDegraded(t *testing.T) {
	// Exactly half the plan's workers are degraded: w2 mildly (5×), w3
	// catastrophically (30×). With the interpolated median ((1+5)/2 = 3,
	// threshold 24×) only w3 crosses; the old upper median (5, threshold
	// 40×) would have hidden the dead worker behind the merely-slow one.
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.Uniform(8, 5e10, 100000)
	base := partition.EvenSplit(m.NumLayers(), []int{0, 1, 2, 3})
	_, c := runJob(t, Config{
		Model: m, Cluster: cl,
		Workers: []int{0, 1, 2, 3}, CheckEvery: 3, InitialPlan: &base,
	}, trace.Trace{
		{At: 0.5, Kind: trace.DegradeGPU, Server: 2, Value: 4},
		{At: 0.5, Kind: trace.DegradeGPU, Server: 3, Value: 29},
	}, 40)
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (only the 30x worker)", c.Stats().Evictions)
	}
	for _, w := range c.Plan().AllWorkers() {
		if w == 3 {
			t.Fatalf("dead worker 3 still in plan %s", c.Plan())
		}
	}
}

func TestAbortThenEvict(t *testing.T) {
	// A worker dies while a restart switch is draining through it: the
	// next control round must abort the switch first (QueuedEvictions),
	// then evict, and the job completes on the survivors.
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.Uniform(8, 5e10, 100000)
	base := partition.EvenSplit(m.NumLayers(), []int{0, 1, 2, 3})
	eng := sim.NewEngine()
	net := netsim.New(eng, cl)
	c, err := New(eng, net, Config{
		Model: m, Cluster: cl,
		Workers: []int{0, 1, 2, 3}, CheckEvery: 3, InitialPlan: &base,
	})
	if err != nil {
		t.Fatal(err)
	}
	np := base.Clone()
	np.Stages[0].End++
	np.Stages[1].Start++
	hooked := false
	c.engine.OnBatchDone(func(batch int, _ sim.Time) {
		if hooked || batch < 4 {
			return
		}
		hooked = true
		if err := c.engine.ApplyPlan(np, pipeline.SwitchRestart, nil); err != nil {
			t.Errorf("ApplyPlan: %v", err)
			return
		}
		// The drain is now in flight; kill worker 2 under it.
		cl.SetCompetingJobs(2, 20)
		net.OnCapacityChange()
	})
	c.Start(context.Background(), 40)
	eng.RunAll()
	if got := c.engine.Completed(); got != 40 {
		t.Fatalf("deadlock: completed %d/40", got)
	}
	st := c.Stats()
	if st.QueuedEvictions != 1 {
		t.Errorf("queued evictions = %d, want 1", st.QueuedEvictions)
	}
	if st.AbortedSwitches != 1 {
		t.Errorf("aborted switches = %d, want 1", st.AbortedSwitches)
	}
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	for _, w := range c.Plan().AllWorkers() {
		if w == 2 {
			t.Fatalf("failed worker 2 still in plan %s", c.Plan())
		}
	}
	if err := c.engine.SwitchIdle(); err != nil {
		t.Fatal(err)
	}
}

// TestDetectFailuresLowAllocs: the failure check every control round
// runs reuses the controller's scratch, so once warm it allocates
// nothing, and it still names exactly the failed worker, whose entry in
// the scratch a later call must not corrupt.
func TestDetectFailuresLowAllocs(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.Uniform(8, 5e10, 100000)
	base := partition.EvenSplit(m.NumLayers(), []int{0, 1, 2, 3, 4})
	eng := sim.NewEngine()
	c, err := New(eng, netsim.New(eng, cl), Config{
		Model: m, Cluster: cl, Workers: []int{0, 1, 2, 3, 4}, InitialPlan: &base,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.SetCompetingJobs(3, 20)
	prof := profile.NewProfiler(m, cl).Observe()
	var got []int
	run := func() { got = c.detectFailures(prof) }
	run()
	if !slices.Equal(got, []int{3}) {
		t.Fatalf("detectFailures = %v, want [3]", got)
	}
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("detectFailures allocates %v/op, want 0", n)
	}
	if !slices.Equal(got, []int{3}) {
		t.Fatalf("detectFailures after reuse = %v, want [3]", got)
	}
}
