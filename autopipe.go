// Package autopipe is the public API of the AutoPipe reproduction: a
// discrete-event simulation of pipeline-parallel DNN training in a
// shared GPU cluster, plus the AutoPipe controller — reinforcement-
// learning-gated, meta-network-scored dynamic work repartitioning with
// fine-grained state switching (Hu, Liu, Wang, Wang: "AutoPipe:
// Automatic Configuration of Pipeline Parallelism in Shared GPU
// Cluster", ICPP 2024).
//
// Quick start:
//
//	m := autopipe.ResNet50()
//	cl := autopipe.Testbed(autopipe.Gbps(25))
//	plan := autopipe.PlanPipeDream(m, cl, autopipe.Workers(10))
//	res, err := autopipe.Measure(autopipe.RunConfig{
//		Model: m, Cluster: cl, Plan: plan, Batches: 50,
//	})
//
// For a managed job that adapts to resource changes, see NewJob.
package autopipe

import (
	"autopipe/internal/autopipe"
	"autopipe/internal/chaos"
	"autopipe/internal/cluster"
	"autopipe/internal/meta"
	"autopipe/internal/model"
	"autopipe/internal/netsim"
	"autopipe/internal/partition"
	"autopipe/internal/pipeline"
	"autopipe/internal/profile"
	"autopipe/internal/rl"
	"autopipe/internal/trace"
)

// Re-exported core types. These aliases make the internal packages'
// documented types part of the public surface.
type (
	// Model is a DNN workload expressed as per-layer cost profiles.
	Model = model.Model
	// Cluster is the shared GPU cluster resource model.
	Cluster = cluster.Cluster
	// Plan is a pipeline work partition (stages × workers + in-flight).
	Plan = partition.Plan
	// Stage is one pipeline stage of a Plan.
	Stage = partition.Stage
	// Result summarises a bounded training run.
	Result = pipeline.Result
	// Trace is a schedule of resource-change events.
	Trace = trace.Trace
	// TraceEvent is one resource change.
	TraceEvent = trace.Event
	// SyncScheme selects PS or Ring-All-reduce parameter sync.
	SyncScheme = netsim.SyncScheme
	// Framework models the host ML framework's efficiency.
	Framework = pipeline.Framework
	// GPUType describes an accelerator model.
	GPUType = cluster.GPUType
	// ControllerStats aggregates AutoPipe controller activity.
	ControllerStats = autopipe.Stats
	// DecisionRecord is one recorded reconfiguration decision.
	DecisionRecord = autopipe.DecisionRecord
	// ChaosSpec is a deterministic fault-injection schedule.
	ChaosSpec = chaos.Spec
	// ChaosEvent is one scheduled fault.
	ChaosEvent = chaos.Event
)

// Chaos fault kinds.
const (
	ChaosKillWorker       = chaos.KillWorker
	ChaosKillWorkerOnFlow = chaos.KillWorkerOnFlow
	ChaosStallFlows       = chaos.StallFlows
	ChaosDropFlows        = chaos.DropFlows
	ChaosFlapNIC          = chaos.FlapNIC
	ChaosKillDaemon       = chaos.KillDaemon
	ChaosPartition        = chaos.Partition
)

// Synchronisation schemes.
const (
	ParameterServer = netsim.ParameterServer
	RingAllReduce   = netsim.RingAllReduce
)

// Framework presets.
var (
	TensorFlow = pipeline.TensorFlow
	MXNet      = pipeline.MXNet
	PyTorch    = pipeline.PyTorch
)

// GPU presets.
var (
	P100 = cluster.P100
	V100 = cluster.V100
	A100 = cluster.A100
)

// Gbps converts gigabits/second to the bits/second the API expects.
func Gbps(g float64) float64 { return cluster.Gbps(g) }

// Model zoo: the paper's workloads.
func ResNet50() *Model { return model.ResNet50() }

// VGG16 returns the VGG-16 profile (mini-batch 64).
func VGG16() *Model { return model.VGG16() }

// AlexNet returns the AlexNet profile (mini-batch 256).
func AlexNet() *Model { return model.AlexNet() }

// BERT48 returns the 48-layer BERT profile (mini-batch 256).
func BERT48() *Model { return model.BERT48() }

// GoogLeNet returns the Inception-v1 profile (mini-batch 128).
func GoogLeNet() *Model { return model.GoogLeNet() }

// ModelByName resolves "ResNet50", "VGG16", "AlexNet" or "BERT48".
func ModelByName(name string) (*Model, error) { return model.ByName(name) }

// UniformModel returns a synthetic model with n identical layers — handy
// for experiments and tests.
func UniformModel(n int, flopsPerLayer float64, activationElems int64) *Model {
	return model.Uniform(n, flopsPerLayer, activationElems)
}

// Testbed returns the paper's cluster: 5 servers × 2 P100 GPUs behind a
// single switch at the given NIC speed (use Gbps).
func Testbed(nicBwBps float64) *Cluster { return cluster.Testbed(nicBwBps) }

// NewCluster builds a custom homogeneous cluster.
func NewCluster(servers, gpusPerServer int, gpu GPUType, nicBwBps float64) *Cluster {
	return cluster.NewCluster(cluster.Config{
		Servers: servers, GPUsPerServer: gpusPerServer,
		GPUType: gpu, NICBwBps: nicBwBps,
	})
}

// Workers returns worker ids 0..n-1.
func Workers(n int) []int {
	ws := make([]int, n)
	for i := range ws {
		ws[i] = i
	}
	return ws
}

// PlanPipeDream runs PipeDream's DP partitioner (exclusive-GPU profile,
// nominal bandwidth — the paper's baseline planner).
func PlanPipeDream(m *Model, cl *Cluster, workers []int) Plan {
	cm := partition.NewPipeDreamCost(m, cl, workers[0], profile.LineRateBps(cl))
	return partition.PipeDream(cm, workers)
}

// PlanOptimal re-runs the partitioner against the cluster's *current*
// contended state (the motivation experiments' oracle).
func PlanOptimal(m *Model, cl *Cluster, workers []int) Plan {
	cm := partition.NewRefinedCost(m, cl, workers)
	return partition.PipeDream(cm, workers)
}

// SelectWorkers searches worker-subset sizes with the DP planner and
// returns the best plan and the number of workers it uses — on slow
// fabrics fewer workers can out-train the full pool.
func SelectWorkers(m *Model, cl *Cluster, workers []int) (Plan, int) {
	cm := partition.NewPipeDreamCost(m, cl, workers[0], profile.LineRateBps(cl))
	return partition.SelectWorkers(cm, workers)
}

// PlanEvenSplit splits layers evenly, one worker per stage.
func PlanEvenSplit(m *Model, workers []int) Plan {
	return partition.EvenSplit(m.NumLayers(), workers)
}

// PlanDataParallel replicates the whole model on every worker (the
// vanilla-framework baseline).
func PlanDataParallel(m *Model, workers []int) Plan {
	return partition.SingleStage(m.NumLayers(), workers)
}

// BandwidthSteps builds a trace that sets every NIC to gbps[i] at
// times[i] seconds (virtual time).
func BandwidthSteps(times, gbps []float64) Trace {
	return trace.BandwidthSteps(times, gbps)
}

// JobArrivals builds a trace adding one competing job per time.
func JobArrivals(times []float64) Trace { return trace.JobArrivals(times) }

// Predictor and component re-exports for advanced composition.
type (
	// Predictor scores candidate plans (meta-network or analytic).
	Predictor = meta.Predictor
	// MetaNetwork is the LSTM+FC speed predictor of paper Fig. 7.
	MetaNetwork = meta.Network
	// Arbiter is the RL switching policy of paper §4.3.
	Arbiter = rl.Arbiter
)

// NewHybridPredictor blends a (possibly offline-trained) meta-network
// with the scheme-aware analytic model; netWeight ∈ [0,1] is the
// network's share and grows during online adaptation.
func NewHybridPredictor(net *MetaNetwork, netWeight float64, scheme SyncScheme) Predictor {
	return &meta.HybridPredictor{Net: net, NetWeight: netWeight, Scheme: scheme}
}
