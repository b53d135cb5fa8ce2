package partition

import (
	"math"

	"autopipe/internal/cluster"
	"autopipe/internal/model"
)

// CostModel is the analytic throughput model a planner optimises against.
//
// The PipeDream variant (NewPipeDreamCost) deliberately keeps PipeDream's
// simplifications — one exclusive reference GPU, a single uniform
// bandwidth, all-reduce weight sync — because the paper's Observation 2
// is that this model diverges from reality. The refined variant
// (NewRefinedCost) uses the cluster's current contended speeds; it is the
// "re-execute the work partition" oracle of Figures 3–6.
type CostModel struct {
	Model *model.Model
	// LayerTime is per-layer FP+BP seconds for one mini-batch on the
	// reference (or per-current-state averaged) GPU.
	LayerTime []float64
	// ActBytes[l] is the activation volume crossing the boundary after
	// layer l for one mini-batch (forward direction; the backward
	// gradient has the same size).
	ActBytes []int64
	// ParamBytes[l] is the parameter volume of layer l.
	ParamBytes []int64
	// Bandwidth is the single uniform link speed (bits/sec) the model
	// assumes.
	Bandwidth float64
}

// NewPipeDreamCost builds PipeDream's planning model: exclusive-GPU
// compute times for the GPU type of the first worker, uniform bandwidth
// as given (PipeDream profiles once, before training).
func NewPipeDreamCost(m *model.Model, cl *cluster.Cluster, refWorker int, bwBps float64) *CostModel {
	cm := &CostModel{Model: m, Bandwidth: bwBps}
	ref := cl.GPU(refWorker)
	saveJobs := ref.CompetingJobs
	ref.CompetingJobs = 0 // PipeDream profiles an exclusively-used GPU
	for _, l := range m.Layers {
		t := cl.FPTime(l, m.MiniBatch, refWorker) * (1 + cluster.BPComputeFactor)
		cm.LayerTime = append(cm.LayerTime, t)
		cm.ActBytes = append(cm.ActBytes, l.OutputBytes(m.MiniBatch))
		cm.ParamBytes = append(cm.ParamBytes, l.ParamBytes())
	}
	ref.CompetingJobs = saveJobs
	return cm
}

// NewRefinedCost builds the oracle model from the cluster's *current*
// state: compute times averaged over the given workers with their real
// contention, bandwidth as the worst currently-available NIC among them.
func NewRefinedCost(m *model.Model, cl *cluster.Cluster, workers []int) *CostModel {
	cm := &CostModel{Model: m}
	minBw := math.Inf(1)
	for _, w := range workers {
		bw := cl.ServerOf(w).AvailBwBps()
		if bw < minBw {
			minBw = bw
		}
	}
	cm.Bandwidth = minBw
	for _, l := range m.Layers {
		avg := 0.0
		for _, w := range workers {
			avg += cl.FPTime(l, m.MiniBatch, w) * (1 + cluster.BPComputeFactor)
		}
		avg /= float64(len(workers))
		cm.LayerTime = append(cm.LayerTime, avg)
		cm.ActBytes = append(cm.ActBytes, l.OutputBytes(m.MiniBatch))
		cm.ParamBytes = append(cm.ParamBytes, l.ParamBytes())
	}
	return cm
}

// stageComputeTime returns the per-mini-batch time of layers [lo,hi)
// replicated m ways: compute split across replicas plus the all-reduce
// weight-sync cost 4(m−1)/m · |w| / B (PipeDream's formula).
func (c *CostModel) stageComputeTime(lo, hi, m int) float64 {
	var t float64
	var w int64
	for l := lo; l < hi; l++ {
		t += c.LayerTime[l]
		w += c.ParamBytes[l]
	}
	sync := 0.0
	if m > 1 {
		sync = 4 * float64(m-1) / float64(m) * float64(w*8) / c.Bandwidth
	}
	return t/float64(m) + sync
}

// boundaryCommTime returns the per-mini-batch communication time across
// the boundary after layer l (activation forward + gradient backward).
func (c *CostModel) boundaryCommTime(l int) float64 {
	return 2 * float64(c.ActBytes[l]*8) / c.Bandwidth
}

// Bottleneck returns the steady-state per-mini-batch time of a plan: the
// slowest pipeline resource (stage compute+sync, or boundary transfer).
func (c *CostModel) Bottleneck(p Plan) float64 {
	worst := 0.0
	for i, s := range p.Stages {
		t := c.stageComputeTime(s.Start, s.End, s.Replicas())
		if t > worst {
			worst = t
		}
		if i < len(p.Stages)-1 {
			ct := c.boundaryCommTime(s.End - 1)
			if ct > worst {
				worst = ct
			}
		}
	}
	return worst
}

// Throughput returns predicted samples/sec for a plan.
func (c *CostModel) Throughput(p Plan) float64 {
	b := c.Bottleneck(p)
	if b <= 0 {
		return 0
	}
	return float64(c.Model.MiniBatch) / b
}

// TotalTime returns Σ LayerTime (single-GPU per-mini-batch time), the
// DP's base case quantity.
func (c *CostModel) TotalTime() float64 {
	s := 0.0
	for _, t := range c.LayerTime {
		s += t
	}
	return s
}
