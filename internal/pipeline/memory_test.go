package pipeline

import (
	"maps"
	"slices"
	"testing"

	"autopipe/internal/cluster"
	"autopipe/internal/model"
	"autopipe/internal/netsim"
	"autopipe/internal/partition"
	"autopipe/internal/sim"
)

func measureMemory(t *testing.T, syncEvery, inFlight, batches int) (*AsyncEngine, int64) {
	t.Helper()
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.VGG16()
	plan := partition.EvenSplit(m.NumLayers(), workerIDs(4))
	plan.InFlight = inFlight
	eng := sim.NewEngine()
	net := netsim.New(eng, cl)
	e, err := NewAsync(eng, net, Config{
		Model: m, Cluster: cl, Plan: plan,
		Scheme: netsim.RingAllReduce, SyncEvery: syncEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(batches)
	eng.RunAll()
	if e.Completed() != batches {
		t.Fatalf("deadlock %d/%d", e.Completed(), batches)
	}
	return e, e.MaxPeakMemoryBytes()
}

func TestMemoryAtLeastParams(t *testing.T) {
	e, _ := measureMemory(t, 1, 4, 12)
	peaks := e.PeakMemoryBytes()
	m := e.cfg.Model
	for _, s := range e.cfg.Plan.Stages {
		var params int64
		for l := s.Start; l < s.End; l++ {
			params += m.Layers[l].ParamBytes()
		}
		for _, w := range s.Workers {
			if peaks[w] < params {
				t.Fatalf("worker %d peak %d below its stage params %d", w, peaks[w], params)
			}
		}
	}
}

func TestTwoBWUsesLessWeightMemory(t *testing.T) {
	// PipeDream (version per batch) pins more weight versions than
	// 2BW-style coalescing (version every 4 batches) at the same
	// pipeline depth.
	_, pipedream := measureMemory(t, 1, 4, 20)
	_, twoBW := measureMemory(t, 4, 4, 20)
	if twoBW >= pipedream {
		t.Fatalf("2BW peak %d not below PipeDream %d", twoBW, pipedream)
	}
}

func TestDeeperPipelineUsesMoreMemory(t *testing.T) {
	_, shallow := measureMemory(t, 1, 2, 20)
	_, deep := measureMemory(t, 1, 6, 20)
	if deep <= shallow {
		t.Fatalf("InFlight=6 peak %d not above InFlight=2 peak %d", deep, shallow)
	}
}

func TestMemoryDeterministic(t *testing.T) {
	_, a := measureMemory(t, 2, 4, 15)
	_, b := measureMemory(t, 2, 4, 15)
	if a != b {
		t.Fatalf("nondeterministic memory: %d vs %d", a, b)
	}
}

// oracleMemoryUsage is the map-based memoryUsage that the cached stage
// totals and the scratch version count replaced, kept as a test oracle:
// it re-sums the stage's layers and collects the distinct weight
// versions in a map on every call.
func oracleMemoryUsage(r *replica, e *AsyncEngine) int64 {
	var params, acts int64
	for l := r.stage.start; l < r.stage.end; l++ {
		params += e.cfg.Model.Layers[l].ParamBytes()
		acts += e.cfg.Model.Layers[l].OutputBytes(e.cfg.Model.MiniBatch)
	}
	versions := map[int]bool{r.version: true}
	for _, s := range r.stash {
		versions[s.version] = true
	}
	return params*int64(len(versions)) + acts*int64(len(r.stash))
}

// TestPeakMemoryMatchesMapOracleAcrossFineGrainedSwitch: a fine-grained
// switch moves stage bounds in place mid-run; every worker's
// PeakMemoryBytes must still equal the peak of the map-based oracle,
// sampled whenever the worker's stash or weight version changes (the
// points where the engine records memory). Totals cached on the old
// bounds would under-count the grown stage after the commit.
func TestPeakMemoryMatchesMapOracleAcrossFineGrainedSwitch(t *testing.T) {
	cfg := basicConfig(25, 4)
	cfg.Plan.InFlight = 4
	eng := sim.NewEngine()
	e, err := NewAsync(eng, netsim.New(eng, cfg.Cluster), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const batches = 40
	np := boundaryShiftPlan()
	var res *SwitchResult
	e.OnBatchDone(func(batch int, at sim.Time) {
		if batch == batches/4 {
			if err := e.ApplyPlan(np, SwitchFineGrained, func(r SwitchResult) { res = &r }); err != nil {
				t.Errorf("ApplyPlan: %v", err)
			}
		}
	})
	type state struct {
		version int
		stash   []stashed
	}
	seen := map[int]state{}
	want := map[int]int64{}
	e.Start(batches)
	for eng.Step() {
		for w, r := range e.byWorker {
			s, ok := seen[w]
			if ok && s.version == r.version && slices.Equal(s.stash, r.stash) {
				continue
			}
			seen[w] = state{r.version, slices.Clone(r.stash)}
			if !ok {
				continue // the initial empty state is never recorded
			}
			if m := oracleMemoryUsage(r, e); m > want[w] {
				want[w] = m
			}
		}
	}
	if e.Completed() != batches || res == nil || !res.Committed || !e.Plan().Equal(np) {
		t.Fatalf("run did not complete the switch: %d batches, result %+v, plan %s", e.Completed(), res, e.Plan())
	}
	got := e.PeakMemoryBytes()
	if !maps.Equal(got, want) {
		t.Fatalf("peak memory %v, map oracle %v", got, want)
	}
}
