package server

import (
	"fmt"
	"strings"
	"time"

	"autopipe"
	"autopipe/internal/trace"
)

// JobSpec is the POST /v1/jobs request body: everything needed to build
// one AutoPipe-managed job on a fresh simulated cluster. Zero values
// select the paper's defaults (testbed cluster, Ring all-reduce, all
// GPUs).
type JobSpec struct {
	// Model is a zoo name (ResNet50, VGG16, AlexNet, BERT48, GoogLeNet)
	// or "uniform" together with the Uniform block.
	Model   string       `json:"model"`
	Uniform *UniformSpec `json:"uniform,omitempty"`

	// Cluster shape; all-zero selects the paper's testbed (5 servers ×
	// 2 P100 behind one switch).
	Servers       int     `json:"servers,omitempty"`
	GPUsPerServer int     `json:"gpus_per_server,omitempty"`
	GPU           string  `json:"gpu,omitempty"` // P100 | V100 | A100
	BandwidthGbps float64 `json:"bandwidth_gbps,omitempty"`

	// Workers is the number of GPUs the job may use (0 = all).
	Workers int `json:"workers,omitempty"`
	// Scheme is "PS" or "Ring" (default Ring).
	Scheme string `json:"scheme,omitempty"`
	// Batches is the mini-batch budget (required).
	Batches int `json:"batches"`
	// SyncEvery is the PipeDream-2BW gradient-coalescing period.
	SyncEvery int `json:"sync_every,omitempty"`
	// CheckEvery is the reconfiguration decision period in iterations.
	CheckEvery int `json:"check_every,omitempty"`
	// DisableReconfig freezes the initial plan (PipeDream ablation).
	DisableReconfig bool `json:"disable_reconfig,omitempty"`
	// CompetingJobs pre-loads the cluster with contending jobs.
	CompetingJobs int `json:"competing_jobs,omitempty"`

	// Trace schedules explicit resource changes; ChurnSeed instead
	// generates a randomized Philly-style churn trace lasting
	// ChurnDurationSec (default 60 virtual seconds).
	Trace            []TraceEvent `json:"trace,omitempty"`
	ChurnSeed        *int64       `json:"churn_seed,omitempty"`
	ChurnDurationSec float64      `json:"churn_duration_sec,omitempty"`

	// Chaos schedules deterministic fault injection on the job's
	// simulated cluster (worker kills, flow faults, NIC flaps, daemon
	// crashes). Used by the recovery acceptance tests.
	Chaos []ChaosEventSpec `json:"chaos,omitempty"`
}

// UniformSpec describes a synthetic model with identical layers.
type UniformSpec struct {
	Layers          int     `json:"layers"`
	FlopsPerLayer   float64 `json:"flops_per_layer,omitempty"`
	ActivationElems int64   `json:"activation_elems,omitempty"`
}

// TraceEvent is one scheduled resource change.
type TraceEvent struct {
	At   float64 `json:"at"`
	Kind string  `json:"kind"` // bandwidth | add_job | remove_job
	Gbps float64 `json:"gbps,omitempty"`
}

// Chaos event kinds accepted in ChaosEventSpec.Kind.
const (
	chaosKindKill       = "kill"         // kill worker at time At
	chaosKindKillOnFlow = "kill_on_flow" // kill dst of first flow matching Match
	chaosKindStall      = "stall"        // stall flows matching Match from At
	chaosKindDrop       = "drop"         // drop flows matching Match from At
	chaosKindFlapNIC    = "flap_nic"     // NIC to Gbps at At, restore after HoldSec
	chaosKindKillDaemon = "kill_daemon"  // crash the daemon at At or on Match
	chaosKindPartition  = "partition"    // sever the daemon's peer links at At or on Match
)

// ChaosEventSpec is one scheduled fault in a job spec.
type ChaosEventSpec struct {
	At      float64 `json:"at,omitempty"`
	Kind    string  `json:"kind"`
	Worker  int     `json:"worker,omitempty"`
	Match   string  `json:"match,omitempty"`
	Gbps    float64 `json:"gbps,omitempty"`
	HoldSec float64 `json:"hold_sec,omitempty"`
}

// JobInfo is the API view of one registry entry.
type JobInfo struct {
	ID      string    `json:"id"`
	Created time.Time `json:"created_at"`
	Spec    JobSpec   `json:"spec"`
	// Node names the fleet daemon currently hosting the job; empty on a
	// single-node deployment.
	Node string `json:"node,omitempty"`
	// Fence is the job's ownership epoch: 1 on first admission, bumped
	// every time another node adopts the job. Higher fences supersede
	// lower ones everywhere.
	Fence  uint64             `json:"fence,omitempty"`
	Status autopipe.JobStatus `json:"status"`
	// Result is present once the job reaches the done state.
	Result *autopipe.JobResult `json:"result,omitempty"`
}

// RunReport is the one-document JSON summary of a finished run, shared
// by `autopipe-sim -json` and consumers of the daemon API.
type RunReport struct {
	Model      string                    `json:"model"`
	System     string                    `json:"system"`
	Scheme     string                    `json:"scheme"`
	Workers    int                       `json:"workers"`
	Result     autopipe.Result           `json:"result"`
	Controller *autopipe.ControllerStats `json:"controller,omitempty"`
	FinalPlan  *autopipe.Plan            `json:"final_plan,omitempty"`
	Decisions  []autopipe.DecisionRecord `json:"decisions,omitempty"`
}

// Bounds on a spec's size fields. A job's build cannot be interrupted,
// and the initial PipeDream plan it computes costs O(layers² × GPUs²):
// at these bounds NewJob takes about 0.8 s on a 2-core Xeon (go1.24).
// Each bound is above every spec the repository ships; the largest zoo
// model has 98 layers and the largest spec cluster 16 GPUs.
const (
	maxUniformLayers = 256
	maxClusterGPUs   = 64
	maxCompetingJobs = 64
)

// build validates the spec and assembles the job configuration plus
// batch budget. Each job gets its own cluster instance: jobs share the
// daemon, not the simulated fabric.
func (s JobSpec) build() (autopipe.JobConfig, int, error) {
	var cfg autopipe.JobConfig
	m, err := resolveModel(s)
	if err != nil {
		return cfg, 0, err
	}
	if s.Batches <= 0 {
		return cfg, 0, fmt.Errorf("batches must be positive, got %d", s.Batches)
	}
	cl, err := buildCluster(s)
	if err != nil {
		return cfg, 0, err
	}
	if s.CompetingJobs > maxCompetingJobs {
		return cfg, 0, fmt.Errorf("competing_jobs %d exceeds %d", s.CompetingJobs, maxCompetingJobs)
	}
	for i := 0; i < s.CompetingJobs; i++ {
		cl.AddCompetingJob()
	}
	scheme, err := parseScheme(s.Scheme)
	if err != nil {
		return cfg, 0, err
	}
	workers := s.Workers
	if workers == 0 {
		workers = cl.NumGPUs()
	}
	if workers < 1 || workers > cl.NumGPUs() {
		return cfg, 0, fmt.Errorf("workers %d out of range [1,%d]", workers, cl.NumGPUs())
	}
	dyn, err := buildDynamics(s)
	if err != nil {
		return cfg, 0, err
	}
	ch, err := buildChaos(s)
	if err != nil {
		return cfg, 0, err
	}
	cfg = autopipe.JobConfig{
		Model: m, Cluster: cl, Workers: autopipe.Workers(workers),
		Scheme: scheme, SyncEvery: s.SyncEvery, CheckEvery: s.CheckEvery,
		DisableReconfig: s.DisableReconfig, Dynamics: dyn, Chaos: ch,
	}
	return cfg, s.Batches, nil
}

func buildChaos(s JobSpec) (*autopipe.ChaosSpec, error) {
	if len(s.Chaos) == 0 {
		return nil, nil
	}
	spec := &autopipe.ChaosSpec{}
	for _, ev := range s.Chaos {
		if ev.At < 0 {
			return nil, fmt.Errorf("chaos event time %g is negative", ev.At)
		}
		out := autopipe.ChaosEvent{
			At: ev.At, Worker: ev.Worker, Match: ev.Match,
			Gbps: ev.Gbps, HoldSec: ev.HoldSec,
		}
		switch ev.Kind {
		case chaosKindKill:
			out.Kind = autopipe.ChaosKillWorker
		case chaosKindKillOnFlow:
			out.Kind = autopipe.ChaosKillWorkerOnFlow
			if ev.Match == "" {
				return nil, fmt.Errorf("chaos %s event needs a match", ev.Kind)
			}
		case chaosKindStall:
			out.Kind = autopipe.ChaosStallFlows
			if ev.Match == "" {
				return nil, fmt.Errorf("chaos %s event needs a match", ev.Kind)
			}
		case chaosKindDrop:
			out.Kind = autopipe.ChaosDropFlows
			if ev.Match == "" {
				return nil, fmt.Errorf("chaos %s event needs a match", ev.Kind)
			}
		case chaosKindFlapNIC:
			out.Kind = autopipe.ChaosFlapNIC
			if ev.Gbps <= 0 {
				return nil, fmt.Errorf("chaos flap_nic event needs positive gbps")
			}
		case chaosKindKillDaemon:
			out.Kind = autopipe.ChaosKillDaemon
		case chaosKindPartition:
			out.Kind = autopipe.ChaosPartition
		default:
			return nil, fmt.Errorf("unknown chaos event kind %q", ev.Kind)
		}
		spec.Events = append(spec.Events, out)
	}
	return spec, nil
}

func resolveModel(s JobSpec) (*autopipe.Model, error) {
	if strings.EqualFold(s.Model, "uniform") || (s.Model == "" && s.Uniform != nil) {
		u := s.Uniform
		if u == nil {
			u = &UniformSpec{}
		}
		layers, flops, act := u.Layers, u.FlopsPerLayer, u.ActivationElems
		if layers <= 0 {
			layers = 8
		}
		if layers > maxUniformLayers {
			return nil, fmt.Errorf("uniform.layers %d exceeds %d", layers, maxUniformLayers)
		}
		if flops <= 0 {
			flops = 1e9
		}
		if act <= 0 {
			act = 1000
		}
		return autopipe.UniformModel(layers, flops, act), nil
	}
	if s.Model == "" {
		return nil, fmt.Errorf("model is required")
	}
	m, err := autopipe.ModelByName(s.Model)
	if err != nil {
		return nil, err
	}
	return m, nil
}

func buildCluster(s JobSpec) (*autopipe.Cluster, error) {
	bw := s.BandwidthGbps
	if bw == 0 {
		bw = 25
	}
	if bw < 0 {
		return nil, fmt.Errorf("bandwidth_gbps must be positive, got %g", bw)
	}
	if s.Servers == 0 && s.GPUsPerServer == 0 && s.GPU == "" {
		return autopipe.Testbed(autopipe.Gbps(bw)), nil
	}
	servers, gps := s.Servers, s.GPUsPerServer
	if servers <= 0 {
		servers = 5
	}
	if gps <= 0 {
		gps = 2
	}
	if servers > maxClusterGPUs || gps > maxClusterGPUs || servers*gps > maxClusterGPUs {
		return nil, fmt.Errorf("cluster of %d servers × %d GPUs exceeds %d GPUs", servers, gps, maxClusterGPUs)
	}
	gpu, err := parseGPU(s.GPU)
	if err != nil {
		return nil, err
	}
	return autopipe.NewCluster(servers, gps, gpu, autopipe.Gbps(bw)), nil
}

func parseGPU(name string) (autopipe.GPUType, error) {
	switch strings.ToUpper(name) {
	case "", "P100":
		return autopipe.P100, nil
	case "V100":
		return autopipe.V100, nil
	case "A100":
		return autopipe.A100, nil
	}
	return autopipe.GPUType{}, fmt.Errorf("unknown gpu %q (want P100, V100 or A100)", name)
}

func parseScheme(s string) (autopipe.SyncScheme, error) {
	switch strings.ToLower(s) {
	case "", "ring":
		return autopipe.RingAllReduce, nil
	case "ps":
		return autopipe.ParameterServer, nil
	}
	return 0, fmt.Errorf("unknown scheme %q (want PS or Ring)", s)
}

func buildDynamics(s JobSpec) (autopipe.Trace, error) {
	if s.ChurnSeed != nil {
		if len(s.Trace) > 0 {
			return nil, fmt.Errorf("churn_seed and trace are mutually exclusive")
		}
		dur := s.ChurnDurationSec
		if dur <= 0 {
			dur = 60
		}
		return autopipe.ChurnTrace(*s.ChurnSeed, dur), nil
	}
	var tr autopipe.Trace
	for _, ev := range s.Trace {
		if ev.At < 0 {
			return nil, fmt.Errorf("trace event time %g is negative", ev.At)
		}
		switch ev.Kind {
		case "bandwidth":
			if ev.Gbps <= 0 {
				return nil, fmt.Errorf("bandwidth trace event needs positive gbps")
			}
			tr = append(tr, autopipe.TraceEvent{At: ev.At, Kind: trace.SetBandwidth, Value: autopipe.Gbps(ev.Gbps)})
		case "add_job":
			tr = append(tr, autopipe.TraceEvent{At: ev.At, Kind: trace.AddJob})
		case "remove_job":
			tr = append(tr, autopipe.TraceEvent{At: ev.At, Kind: trace.RemoveJob})
		default:
			return nil, fmt.Errorf("unknown trace event kind %q", ev.Kind)
		}
	}
	return tr, nil
}
