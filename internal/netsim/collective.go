package netsim

import (
	"fmt"
	"strconv"
)

// SyncScheme selects the parameter-synchronisation pattern used by the
// data-parallel replicas of a pipeline stage (paper §5.1: "two common
// parameter synchronization schemes: PS and Ring All-reduce").
type SyncScheme int

// Synchronisation schemes.
const (
	// ParameterServer: every replica pushes gradients to the first
	// replica (acting as PS) and pulls fresh parameters back.
	ParameterServer SyncScheme = iota
	// RingAllReduce: the replicas run a chunked ring all-reduce,
	// 2(N−1) steps of N parallel transfers of (bytes/N) each.
	RingAllReduce
)

// String implements fmt.Stringer.
func (s SyncScheme) String() string {
	if s == ParameterServer {
		return "PS"
	}
	return "Ring"
}

// ParseSyncScheme maps "PS"/"Ring" to a SyncScheme.
func ParseSyncScheme(s string) (SyncScheme, error) {
	switch s {
	case "PS", "ps":
		return ParameterServer, nil
	case "Ring", "ring", "allreduce":
		return RingAllReduce, nil
	}
	return 0, fmt.Errorf("netsim: unknown sync scheme %q", s)
}

// Sync runs one parameter synchronisation of `bytes` gradient volume
// across the worker set and invokes done when finished. A single worker
// needs no sync. The flow pattern depends on the scheme.
func (n *Network) Sync(scheme SyncScheme, workers []int, bytes int64, name string, done func()) {
	if len(workers) <= 1 || bytes <= 0 {
		n.eng.After(0, name+"/nosync", func() {
			if done != nil {
				done()
			}
		})
		return
	}
	switch scheme {
	case ParameterServer:
		n.psSync(workers, bytes, name, done)
	case RingAllReduce:
		n.ringAllReduce(workers, bytes, name, done)
	default:
		panic("netsim: unknown sync scheme")
	}
}

// psSync: push phase (all replicas → PS in parallel), then pull phase
// (PS → all replicas in parallel). The PS is the first worker, so its
// own copy moves for free.
func (n *Network) psSync(workers []int, bytes int64, name string, done func()) {
	ps := workers[0]
	pushName, pullName := name+"/push", name+"/pull"
	pushRemaining := 0
	startPull := func() {
		pullRemaining := 0
		for _, w := range workers {
			if w == ps {
				continue
			}
			pullRemaining++
		}
		if pullRemaining == 0 {
			if done != nil {
				done()
			}
			return
		}
		for _, w := range workers {
			if w == ps {
				continue
			}
			n.StartFlow(ps, w, bytes, pullName, func() {
				pullRemaining--
				if pullRemaining == 0 && done != nil {
					done()
				}
			})
		}
	}
	for _, w := range workers {
		if w == ps {
			continue
		}
		pushRemaining++
	}
	if pushRemaining == 0 {
		startPull()
		return
	}
	for _, w := range workers {
		if w == ps {
			continue
		}
		n.StartFlow(w, ps, bytes, pushName, func() {
			pushRemaining--
			if pushRemaining == 0 {
				startPull()
			}
		})
	}
}

// ringAllReduce: 2(N−1) synchronous steps; in each step every worker
// sends a (bytes/N)-sized chunk to its ring successor. Steps are
// barrier-synchronised (the standard formulation; slowest link paces the
// ring, which is exactly the behaviour PipeDream's uniform-bandwidth
// model gets wrong on heterogeneous links).
func (n *Network) ringAllReduce(workers []int, bytes int64, name string, done func()) {
	N := len(workers)
	chunk := bytes / int64(N)
	if chunk <= 0 {
		chunk = 1
	}
	totalSteps := 2 * (N - 1)
	var runStep func(step int)
	runStep = func(step int) {
		if step >= totalSteps {
			if done != nil {
				done()
			}
			return
		}
		// One name and one barrier callback serve the step's N flows.
		remaining := N
		stepName := name + "/ring-step" + strconv.Itoa(step)
		stepDone := func() {
			remaining--
			if remaining == 0 {
				runStep(step + 1)
			}
		}
		for i, w := range workers {
			n.StartFlow(w, workers[(i+1)%N], chunk, stepName, stepDone)
		}
	}
	runStep(0)
}

// EstimateSyncTime returns the profiler's analytic estimate (unloaded
// network, Cluster.PairBandwidth point estimates) of one synchronisation.
// The pipeline planner uses this; the DES measures the truth.
func (n *Network) EstimateSyncTime(scheme SyncScheme, workers []int, bytes int64) float64 {
	if len(workers) <= 1 || bytes <= 0 {
		return 0
	}
	switch scheme {
	case ParameterServer:
		ps := workers[0]
		worst := 0.0
		for _, w := range workers[1:] {
			t := n.cl.TransferTime(bytes, w, ps)
			if t > worst {
				worst = t
			}
		}
		return 2 * worst // push + pull
	default: // RingAllReduce
		N := len(workers)
		chunk := bytes / int64(N)
		worst := 0.0
		for i, w := range workers {
			t := n.cl.TransferTime(chunk, w, workers[(i+1)%N])
			if t > worst {
				worst = t
			}
		}
		return float64(2*(N-1)) * worst
	}
}
