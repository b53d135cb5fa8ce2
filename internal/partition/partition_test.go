package partition

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"autopipe/internal/cluster"
	"autopipe/internal/model"
)

func testCost(layers int, bwGbps float64) *CostModel {
	cl := cluster.Testbed(cluster.Gbps(bwGbps))
	m := model.Uniform(layers, 2e9, 50000)
	return NewPipeDreamCost(m, cl, 0, cluster.Gbps(bwGbps))
}

func workerIDs(n int) []int {
	ws := make([]int, n)
	for i := range ws {
		ws[i] = i
	}
	return ws
}

func TestPlanValidate(t *testing.T) {
	p := Plan{
		Stages: []Stage{
			{Start: 0, End: 3, Workers: []int{0, 1}},
			{Start: 3, End: 8, Workers: []int{2}},
		},
		InFlight: 3,
	}
	if err := p.Validate(8, 4); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := p.Clone()
	bad.Stages[1].Start = 4 // gap
	if bad.Validate(8, 4) == nil {
		t.Fatal("gap accepted")
	}
	dup := p.Clone()
	dup.Stages[1].Workers = []int{0} // reuse
	if dup.Validate(8, 4) == nil {
		t.Fatal("duplicate worker accepted")
	}
	short := p.Clone()
	short.Stages[1].End = 7
	if short.Validate(8, 4) == nil {
		t.Fatal("incomplete coverage accepted")
	}
	zero := p.Clone()
	zero.InFlight = 0
	if zero.Validate(8, 4) == nil {
		t.Fatal("zero InFlight accepted")
	}
}

func TestPlanHelpers(t *testing.T) {
	p := Plan{
		Stages: []Stage{
			{Start: 0, End: 3, Workers: []int{0, 1}},
			{Start: 3, End: 8, Workers: []int{2}},
		},
		InFlight: 3,
	}
	if p.WorkerStage(1) != 0 || p.WorkerStage(2) != 1 || p.WorkerStage(9) != -1 {
		t.Fatal("WorkerStage wrong")
	}
	if p.StageOfLayer(2) != 0 || p.StageOfLayer(3) != 1 || p.StageOfLayer(8) != -1 {
		t.Fatal("StageOfLayer wrong")
	}
	if !p.Equal(p.Clone()) {
		t.Fatal("Clone not Equal")
	}
	q := p.Clone()
	q.Stages[0].End = 2
	q.Stages[1].Start = 2
	if p.Equal(q) {
		t.Fatal("Equal missed difference")
	}
	diff := DiffWorkers(p, q)
	if len(diff) != 3 { // all three workers' ranges changed
		t.Fatalf("DiffWorkers = %v", diff)
	}
}

func TestEvenSplit(t *testing.T) {
	p := EvenSplit(10, workerIDs(3))
	if err := p.Validate(10, 3); err != nil {
		t.Fatal(err)
	}
	if p.NumStages() != 3 {
		t.Fatalf("stages = %d", p.NumStages())
	}
	// More workers than layers: capped.
	p2 := EvenSplit(2, workerIDs(5))
	if err := p2.Validate(2, 5); err != nil {
		t.Fatal(err)
	}
	if p2.NumStages() != 2 {
		t.Fatalf("capped stages = %d", p2.NumStages())
	}
}

func TestSingleStageAndModelParallel(t *testing.T) {
	dp := SingleStage(10, workerIDs(4))
	if err := dp.Validate(10, 4); err != nil {
		t.Fatal(err)
	}
	if dp.NumStages() != 1 || dp.Stages[0].Replicas() != 4 {
		t.Fatal("SingleStage shape wrong")
	}
	mp := ModelParallel(10, workerIDs(4))
	if mp.InFlight != 1 {
		t.Fatal("ModelParallel must have a single batch in flight")
	}
}

func TestPipeDreamPlanValid(t *testing.T) {
	for _, m := range []*model.Model{model.AlexNet(), model.VGG16(), model.ResNet50()} {
		cl := cluster.Testbed(cluster.Gbps(25))
		cm := NewPipeDreamCost(m, cl, 0, cluster.Gbps(25))
		p := PipeDream(cm, workerIDs(10))
		if err := p.Validate(m.NumLayers(), 10); err != nil {
			t.Errorf("%s: invalid DP plan: %v (%s)", m.Name, err, p)
		}
	}
}

func TestPipeDreamMatchesExhaustiveSmall(t *testing.T) {
	// Property: DP bottleneck equals exhaustive-search bottleneck on
	// instances small enough to brute-force.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 12; trial++ {
		L := 2 + rng.Intn(4) // 2..5 layers
		N := 1 + rng.Intn(3) // 1..3 workers
		cl := cluster.Testbed(cluster.Gbps(10))
		m := model.Uniform(L, 1e9+rng.Float64()*5e9, int64(1000+rng.Intn(100000)))
		// Perturb layers so the instance is not trivially symmetric.
		for i := range m.Layers {
			m.Layers[i].FLOPs *= 0.5 + rng.Float64()
			m.Layers[i].Params = int64(1e6 * (0.5 + rng.Float64()))
		}
		cm := NewPipeDreamCost(m, cl, 0, cluster.Gbps(10))
		dp := PipeDream(cm, workerIDs(N))
		ex := Exhaustive(cm, workerIDs(N))
		dv, ev := cm.Bottleneck(dp), cm.Bottleneck(ex)
		if dv > ev*(1+1e-9) {
			t.Fatalf("trial %d (L=%d N=%d): DP bottleneck %v worse than exhaustive %v\nDP: %s\nEX: %s",
				trial, L, N, dv, ev, dp, ex)
		}
	}
}

func TestPipeDreamBeatsEvenSplitOnSkewedModel(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.VGG16() // heavily skewed: conv front, fat FC tail
	cm := NewPipeDreamCost(m, cl, 0, cluster.Gbps(25))
	dp := PipeDream(cm, workerIDs(4))
	even := EvenSplit(m.NumLayers(), workerIDs(4))
	if cm.Bottleneck(dp) > cm.Bottleneck(even) {
		t.Fatalf("DP (%v) worse than even split (%v)", cm.Bottleneck(dp), cm.Bottleneck(even))
	}
}

func TestNOAM(t *testing.T) {
	if noam(4, 1) != 4 || noam(4, 2) != 2 || noam(5, 2) != 3 || noam(3, 0) != 1 {
		t.Fatal("noam formula wrong")
	}
}

func TestCostModelThroughputInvertsBottleneck(t *testing.T) {
	cm := testCost(8, 25)
	p := EvenSplit(8, workerIDs(4))
	b := cm.Bottleneck(p)
	tp := cm.Throughput(p)
	if math.Abs(tp-float64(cm.Model.MiniBatch)/b) > 1e-9 {
		t.Fatal("Throughput != MiniBatch/Bottleneck")
	}
}

func TestRefinedCostSeesContention(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.AlexNet()
	before := NewRefinedCost(m, cl, workerIDs(10))
	cl.AddCompetingJob()
	after := NewRefinedCost(m, cl, workerIDs(10))
	if after.TotalTime() <= before.TotalTime() {
		t.Fatal("refined cost ignores GPU contention")
	}
	cl.SetExtShareAll(0.5)
	after2 := NewRefinedCost(m, cl, workerIDs(10))
	if after2.Bandwidth >= after.Bandwidth {
		t.Fatal("refined cost ignores bandwidth contention")
	}
	// PipeDream's cost must NOT see contention (profiles exclusive GPU).
	pd := NewPipeDreamCost(m, cl, 0, cluster.Gbps(25))
	if math.Abs(pd.TotalTime()-NewPipeDreamCost(m, cluster.Testbed(cluster.Gbps(25)), 0, cluster.Gbps(25)).TotalTime()) > 1e-12 {
		t.Fatal("PipeDream cost changed under contention")
	}
}

func TestNeighborsChangeAtMostTwoWorkers(t *testing.T) {
	p := Plan{
		Stages: []Stage{
			{Start: 0, End: 4, Workers: []int{0}},
			{Start: 4, End: 9, Workers: []int{1}},
			{Start: 9, End: 16, Workers: []int{2, 3}},
		},
		InFlight: 4,
	}
	if err := p.Validate(16, 4); err != nil {
		t.Fatal(err)
	}
	ns := Neighbors(p)
	if len(ns) == 0 {
		t.Fatal("no neighbours generated")
	}
	for _, q := range ns {
		if err := q.Validate(16, 4); err != nil {
			t.Fatalf("invalid neighbour %s: %v", q, err)
		}
		if d := DiffWorkers(p, q); len(d) > 2 {
			t.Fatalf("neighbour %s changes %d workers (%v)", q, len(d), d)
		}
		if q.Equal(p) {
			t.Fatalf("incumbent returned as neighbour")
		}
	}
}

func TestNeighborsBoundaryCount(t *testing.T) {
	// Two single-replica stages over L layers: boundary can move to any
	// of L-1 positions minus the incumbent.
	p := Plan{
		Stages: []Stage{
			{Start: 0, End: 5, Workers: []int{0}},
			{Start: 5, End: 10, Workers: []int{1}},
		},
		InFlight: 2,
	}
	ns := Neighbors(p)
	if len(ns) != 8 { // boundaries 1..9 minus current 5
		t.Fatalf("boundary neighbours = %d, want 8", len(ns))
	}
}

func TestNeighborsWithMergeValid(t *testing.T) {
	p := Plan{
		Stages: []Stage{
			{Start: 0, End: 4, Workers: []int{0}},
			{Start: 4, End: 9, Workers: []int{1}},
			{Start: 9, End: 16, Workers: []int{2, 3}},
		},
		InFlight: 4,
	}
	ns := NeighborsWithMerge(p)
	foundMerge, foundSplit := false, false
	for _, q := range ns {
		if err := q.Validate(16, 4); err != nil {
			t.Fatalf("invalid merged neighbour %s: %v", q, err)
		}
		if q.NumStages() == 2 {
			foundMerge = true
		}
		if q.NumStages() == 4 {
			foundSplit = true
		}
	}
	if !foundMerge || !foundSplit {
		t.Fatalf("merge=%v split=%v; want both", foundMerge, foundSplit)
	}
}

// Property: every PipeDream plan over random uniform-ish models is valid
// and its bottleneck is no worse than both even-split and single-stage.
func TestQuickPipeDreamDominatesBaselines(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		L := 3 + r.Intn(10)
		N := 1 + r.Intn(6)
		cl := cluster.Testbed(cluster.Gbps(10 + 90*r.Float64()))
		m := model.Uniform(L, 1e9, 10000)
		for i := range m.Layers {
			m.Layers[i].FLOPs *= 0.2 + 2*r.Float64()
			m.Layers[i].Params = int64(1e5 + r.Float64()*1e7)
		}
		cm := NewPipeDreamCost(m, cl, 0, cl.Servers[0].NICBwBps)
		dp := PipeDream(cm, workerIDs(N))
		if dp.Validate(L, N) != nil {
			return false
		}
		even := EvenSplit(L, workerIDs(N))
		single := SingleStage(L, workerIDs(N))
		b := cm.Bottleneck(dp)
		return b <= cm.Bottleneck(even)*(1+1e-9) && b <= cm.Bottleneck(single)*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: neighbours of valid plans are valid.
func TestQuickNeighborsValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		L := 4 + r.Intn(12)
		N := 2 + r.Intn(5)
		cl := cluster.Testbed(cluster.Gbps(25))
		m := model.Uniform(L, 1e9, 10000)
		cm := NewPipeDreamCost(m, cl, 0, cluster.Gbps(25))
		p := PipeDream(cm, workerIDs(N))
		for _, q := range NeighborsWithMerge(p) {
			if q.Validate(L, N) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPipeDreamEmptyInputs(t *testing.T) {
	cm := testCost(4, 10)
	if p := PipeDream(cm, nil); len(p.Stages) != 0 {
		t.Fatal("plan from zero workers should be empty")
	}
}

func TestSelectWorkersPrefersFewerOnSlowNetwork(t *testing.T) {
	// VGG16 on a 1 Gbps fabric: boundaries and syncs dominate, so the
	// best configuration uses fewer than all 10 workers.
	cl := cluster.Testbed(cluster.Gbps(1))
	m := model.VGG16()
	cm := NewPipeDreamCost(m, cl, 0, cluster.Gbps(1))
	plan, k := SelectWorkers(cm, workerIDs(10))
	if err := plan.Validate(m.NumLayers(), 10); err != nil {
		t.Fatal(err)
	}
	if k >= 10 {
		t.Fatalf("slow network still selected %d workers", k)
	}
	// The selected plan must be at least as good as the all-worker plan.
	all := PipeDream(cm, workerIDs(10))
	if cm.Bottleneck(plan) > cm.Bottleneck(all)*(1+1e-9) {
		t.Fatalf("subset plan %v worse than all-worker plan %v",
			cm.Bottleneck(plan), cm.Bottleneck(all))
	}
}

func TestSelectWorkersUsesAllOnFastNetwork(t *testing.T) {
	// ResNet50 at 100 Gbps is compute-bound: more workers help.
	cl := cluster.Testbed(cluster.Gbps(100))
	m := model.ResNet50()
	cm := NewPipeDreamCost(m, cl, 0, cluster.Gbps(100))
	_, k := SelectWorkers(cm, workerIDs(10))
	if k < 8 {
		t.Fatalf("fast network selected only %d workers", k)
	}
}

func TestSelectWorkersSingle(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	m := model.AlexNet()
	cm := NewPipeDreamCost(m, cl, 0, cluster.Gbps(25))
	plan, k := SelectWorkers(cm, []int{3})
	if k != 1 || plan.Validate(m.NumLayers(), 10) != nil {
		t.Fatalf("single-worker selection broken: k=%d", k)
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	// Plans serialise losslessly with encoding/json — operators persist
	// and restore configurations.
	p := Plan{
		Stages: []Stage{
			{Start: 0, End: 3, Workers: []int{0, 1}},
			{Start: 3, End: 8, Workers: []int{2}},
		},
		InFlight: 3,
	}
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	// The snake_case wire names are API surface (shared with the
	// autopiped daemon), not an accident of the Go field names.
	for _, name := range []string{`"stages"`, `"in_flight"`, `"start"`, `"end"`, `"workers"`} {
		if !strings.Contains(string(raw), name) {
			t.Errorf("wire form missing field %s: %s", name, raw)
		}
	}
	var back Plan
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !p.Equal(back) {
		t.Fatalf("round trip changed plan: %s vs %s", p, back)
	}
}

// pipeDreamOracle is the DP as it stood before its loops were tightened:
// nested best/split tables and stage and boundary costs recomputed in the
// innermost loop. PipeDream must return exactly its plan, tie-breaks
// included.
func pipeDreamOracle(cm *CostModel, workers []int) Plan {
	L := len(cm.LayerTime)
	N := len(workers)
	if N == 0 || L == 0 {
		return Plan{}
	}
	const inf = math.MaxFloat64
	best := make([][]float64, L+1)
	splitI := make([][]int, L+1)
	splitM := make([][]int, L+1)
	for j := 0; j <= L; j++ {
		best[j] = make([]float64, N+1)
		splitI[j] = make([]int, N+1)
		splitM[j] = make([]int, N+1)
		for m := 0; m <= N; m++ {
			best[j][m] = inf
		}
	}
	best[0][0] = 0
	prefT := make([]float64, L+1)
	prefW := make([]int64, L+1)
	for l := 0; l < L; l++ {
		prefT[l+1] = prefT[l] + cm.LayerTime[l]
		prefW[l+1] = prefW[l] + cm.ParamBytes[l]
	}
	stageTime := func(i, j, m int) float64 {
		t := prefT[j] - prefT[i]
		w := prefW[j] - prefW[i]
		sync := 0.0
		if m > 1 {
			sync = 4 * float64(m-1) / float64(m) * float64(w*8) / cm.Bandwidth
		}
		return t/float64(m) + sync
	}
	for j := 1; j <= L; j++ {
		for m := 1; m <= N; m++ {
			for i := 0; i < j; i++ {
				for mp := 1; mp <= m; mp++ {
					prev := best[i][m-mp]
					if prev == inf {
						continue
					}
					cand := prev
					if i > 0 {
						if ct := cm.boundaryCommTime(i - 1); ct > cand {
							cand = ct
						}
					}
					if st := stageTime(i, j, mp); st > cand {
						cand = st
					}
					if cand < best[j][m] {
						best[j][m] = cand
						splitI[j][m] = i
						splitM[j][m] = mp
					}
				}
			}
		}
	}
	bestM, bestVal := 1, inf
	for m := 1; m <= N; m++ {
		if best[L][m] < bestVal {
			bestVal = best[L][m]
			bestM = m
		}
	}
	var rev []Stage
	j, m := L, bestM
	for j > 0 {
		i, mp := splitI[j][m], splitM[j][m]
		rev = append(rev, Stage{Start: i, End: j, Workers: make([]int, mp)})
		j, m = i, m-mp
	}
	plan := Plan{}
	for s := len(rev) - 1; s >= 0; s-- {
		plan.Stages = append(plan.Stages, rev[s])
	}
	next := 0
	for si := range plan.Stages {
		for k := range plan.Stages[si].Workers {
			plan.Stages[si].Workers[k] = workers[next]
			next++
		}
	}
	plan.InFlight = noam(len(plan.AllWorkers()), plan.Stages[0].Replicas())
	return plan
}

// randomTieCost draws a cost model whose layer times, parameter and
// activation sizes come from a few small integers, so many partitions
// tie on the bottleneck and the DP's tie-break order decides the plan.
func randomTieCost(rng *rand.Rand) *CostModel {
	L := 1 + rng.Intn(24)
	cm := &CostModel{Bandwidth: float64(1+rng.Intn(4)) * 1e9}
	for l := 0; l < L; l++ {
		cm.LayerTime = append(cm.LayerTime, float64(rng.Intn(4))*0.25)
		cm.ParamBytes = append(cm.ParamBytes, int64(rng.Intn(3))*1e6)
		cm.ActBytes = append(cm.ActBytes, int64(rng.Intn(3))*1e5)
	}
	return cm
}

// TestPipeDreamMatchesOracle checks the tightened DP against the
// original on random cost models with ties and on the catalogue.
func TestPipeDreamMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		cm := randomTieCost(rng)
		ws := rng.Perm(12)[:1+rng.Intn(12)]
		got, want := PipeDream(cm, ws), pipeDreamOracle(cm, ws)
		if !got.Equal(want) {
			t.Fatalf("trial %d (L=%d N=%d): got %v, oracle %v", trial, len(cm.LayerTime), len(ws), got, want)
		}
	}
	cl := cluster.Testbed(cluster.Gbps(25))
	for _, m := range []*model.Model{model.ResNet50(), model.VGG16(), model.AlexNet(), model.Uniform(8, 2e9, 50000)} {
		cm := NewPipeDreamCost(m, cl, 0, cluster.Gbps(25))
		ws := workerIDs(cl.NumGPUs())
		if got, want := PipeDream(cm, ws), pipeDreamOracle(cm, ws); !got.Equal(want) {
			t.Fatalf("%s: got %v, oracle %v", m.Name, got, want)
		}
	}
}
