package autopipe

import (
	"math"
	"testing"

	"autopipe/internal/cluster"
	"autopipe/internal/model"
	"autopipe/internal/partition"
	"autopipe/internal/profile"
)

// TestInitialPlanMemoMatchesPipeDream: for every catalogue model and
// the uniform soak job, the memoised initial plan — on its first call
// and on a hit — equals the uncached DP, and mutating a returned plan
// does not reach the cached copy.
func TestInitialPlanMemoMatchesPipeDream(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	ws := make([]int, cl.NumGPUs())
	for i := range ws {
		ws[i] = i
	}
	models := []*model.Model{
		model.ResNet50(), model.VGG16(), model.BERT48(), model.GoogLeNet(), model.AlexNet(),
		model.Uniform(8, 1e9, 1000),
	}
	for _, m := range models {
		for _, n := range []int{len(ws), 4} {
			cm := partition.NewPipeDreamCost(m, cl, 0, profile.LineRateBps(cl))
			want := partition.PipeDream(cm, ws[:n])
			for call := 0; call < 3; call++ {
				got := initialPlan(cm, ws[:n])
				if !got.Equal(want) {
					t.Fatalf("%s/%d workers call %d: memo %v, PipeDream %v", m.Name, n, call, got, want)
				}
				got.InFlight++
				got.Stages[0].Workers[0] = -1
				got.Stages[len(got.Stages)-1].End--
			}
		}
	}
}

// TestInitialPlanMemoKeyCoversInputs: changing any input PipeDream
// reads, by the smallest step, changes the memo key.
func TestInitialPlanMemoKeyCoversInputs(t *testing.T) {
	cl := cluster.Testbed(cluster.Gbps(25))
	mk := func() *partition.CostModel {
		return partition.NewPipeDreamCost(model.ResNet50(), cl, 0, profile.LineRateBps(cl))
	}
	ws := []int{0, 1, 2, 3}
	base := planMemoKey(mk(), ws)
	if planMemoKey(mk(), ws) != base {
		t.Fatal("equal inputs produced different keys")
	}
	for name, mutate := range map[string]func(cm *partition.CostModel) []int{
		"LayerTime":  func(cm *partition.CostModel) []int { cm.LayerTime[5] = math.Nextafter(cm.LayerTime[5], 1); return ws },
		"ActBytes":   func(cm *partition.CostModel) []int { cm.ActBytes[5]++; return ws },
		"ParamBytes": func(cm *partition.CostModel) []int { cm.ParamBytes[5]++; return ws },
		"Bandwidth":  func(cm *partition.CostModel) []int { cm.Bandwidth = math.Nextafter(cm.Bandwidth, 0); return ws },
		"workers":    func(*partition.CostModel) []int { return []int{0, 1, 2, 4} },
		"worker set": func(*partition.CostModel) []int { return []int{0, 1, 2} },
	} {
		cm := mk()
		if planMemoKey(cm, mutate(cm)) == base {
			t.Errorf("changing %s left the memo key unchanged", name)
		}
	}
}
