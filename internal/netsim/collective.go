package netsim

import "fmt"

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
// needs no sync. The flow pattern depends on the scheme; each flow is
// named after name with its phase appended ("/push", "/pull",
// "/ring-step<k>"). Each sync allocates one state object, not one per
// step, and the caller must not mutate workers until done fires.
func (n *Network) Sync(scheme SyncScheme, workers []int, bytes int64, name Name, done func()) {
	if done == nil {
		done = noop
	}
	if len(workers) <= 1 || bytes <= 0 {
		n.eng.After(0, "netsim/nosync", done)
		return
	}
	switch scheme {
	case ParameterServer:
		s := &psSync{n: n, workers: workers, bytes: bytes, name: name, done: done}
		s.flowDone = s.landed
		s.phase()
	case RingAllReduce:
		N := len(workers)
		chunk := bytes / int64(N)
		if chunk <= 0 {
			chunk = 1
		}
		r := &ringSync{n: n, workers: workers, chunk: chunk, name: name, done: done, steps: 2 * (N - 1)}
		r.flowDone = r.landed
		r.run(0)
	default:
		panic("netsim: unknown sync scheme")
	}
}

// psSync is one parameter-server synchronisation: a push phase (all
// replicas → PS in parallel), then a pull phase (PS → all replicas in
// parallel). The PS is the first worker, so its own copy moves for free.
type psSync struct {
	n        *Network
	workers  []int
	bytes    int64
	name     Name
	done     func()
	pulling  bool
	inFlight int
	flowDone func() // s.landed, bound once: every flow's callback
}

// phase starts the current phase's flows, or moves on at once when no
// replica but the PS exists.
func (s *psSync) phase() {
	ps := s.workers[0]
	for _, w := range s.workers {
		if w != ps {
			s.inFlight++
		}
	}
	if s.inFlight == 0 {
		s.next()
		return
	}
	for _, w := range s.workers {
		switch {
		case w == ps:
		case s.pulling:
			s.n.StartFlow(ps, w, s.bytes, s.name.pull(), s.flowDone)
		default:
			s.n.StartFlow(w, ps, s.bytes, s.name.push(), s.flowDone)
		}
	}
}

// next follows a finished phase: push is followed by pull, pull by done.
func (s *psSync) next() {
	if s.pulling {
		s.done()
		return
	}
	s.pulling = true
	s.phase()
}

// landed counts one finished flow; the phase's last moves it on.
func (s *psSync) landed() {
	if s.inFlight--; s.inFlight == 0 {
		s.next()
	}
}

// ringSync is one ring all-reduce: 2(N−1) synchronous steps; in each
// step every worker sends a (bytes/N)-sized chunk to its ring successor.
// Steps are barrier-synchronised (the standard formulation; slowest link
// paces the ring, which is exactly the behaviour PipeDream's
// uniform-bandwidth model gets wrong on heterogeneous links).
type ringSync struct {
	n         *Network
	workers   []int
	chunk     int64
	name      Name
	done      func()
	step      int
	steps     int
	remaining int
	flowDone  func() // r.landed, bound once: every flow's callback
}

// run starts step k, or finishes after the last.
func (r *ringSync) run(k int) {
	if k >= r.steps {
		r.done()
		return
	}
	r.step, r.remaining = k, len(r.workers)
	N := len(r.workers)
	for i, w := range r.workers {
		r.n.StartFlow(w, r.workers[(i+1)%N], r.chunk, r.name.ringStep(k), r.flowDone)
	}
}

// landed is the step barrier: the step's last flow starts the next step.
func (r *ringSync) landed() {
	r.remaining--
	if r.remaining == 0 {
		r.run(r.step + 1)
	}
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
