package autopipe

import (
	"encoding/binary"
	"math"
	"sync"

	"autopipe/internal/partition"
)

// planMemoCap bounds the initial-plan memo. A daemon's specs span a
// handful of (model, cluster, workers) shapes, so a full memo is simply
// emptied and refilled.
const planMemoCap = 64

// planMemo caches partition.PipeDream's answer for a controller's
// initial plan. PipeDream is a pure function of the cost model's
// LayerTime, ActBytes, ParamBytes and Bandwidth plus the worker list,
// and the memo keys on the exact bytes of all five, so a hit returns
// the very plan a miss would compute. Entries are stored and returned
// as clones: a caller mutating its plan cannot poison the cache.
var planMemo = struct {
	sync.Mutex
	plans map[string]partition.Plan
}{plans: map[string]partition.Plan{}}

// initialPlan returns partition.PipeDream(cm, workers) through the memo.
func initialPlan(cm *partition.CostModel, workers []int) partition.Plan {
	key := planMemoKey(cm, workers)
	planMemo.Lock()
	p, ok := planMemo.plans[key]
	planMemo.Unlock()
	if ok {
		return p.Clone()
	}
	p = partition.PipeDream(cm, workers)
	planMemo.Lock()
	if len(planMemo.plans) >= planMemoCap {
		clear(planMemo.plans)
	}
	planMemo.plans[key] = p.Clone()
	planMemo.Unlock()
	return p
}

// planMemoKey encodes every input PipeDream reads, bit for bit.
func planMemoKey(cm *partition.CostModel, workers []int) string {
	L := len(cm.LayerTime)
	b := make([]byte, 0, 8*(3*L+len(workers)+4))
	b = binary.LittleEndian.AppendUint64(b, uint64(L))
	for _, t := range cm.LayerTime {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(cm.ActBytes)))
	for _, a := range cm.ActBytes {
		b = binary.LittleEndian.AppendUint64(b, uint64(a))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(cm.ParamBytes)))
	for _, pb := range cm.ParamBytes {
		b = binary.LittleEndian.AppendUint64(b, uint64(pb))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cm.Bandwidth))
	for _, w := range workers {
		b = binary.LittleEndian.AppendUint64(b, uint64(w))
	}
	return string(b)
}
