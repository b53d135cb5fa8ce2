// Package chaos is a deterministic fault-injection harness for the
// simulated cluster. It layers on the virtual clock (package sim), the
// flow network (package netsim) and the cluster model: faults fire at
// chosen virtual times — or, for the kill-on-flow trigger, at the exact
// injection of a named transfer, which is how a test lands a failure
// precisely mid-switch without timing fragility. Runs are bit-identical
// across repetitions: every fault is a pure function of virtual time and
// flow names.
//
// A killed worker is modelled fail-slow with a migration blackhole: its
// compute is throttled to a crawl (the failure detector's signal) and
// weight-migration transfers addressed to it are silently dropped (the
// switch watchdog's signal). Ordinary data-path flows still deliver —
// a host whose GPU died keeps forwarding NIC traffic.
package chaos

import (
	"fmt"
	"sort"
	"strings"

	"autopipe/internal/cluster"
	"autopipe/internal/netsim"
	"autopipe/internal/pipeline"
	"autopipe/internal/sim"
)

// EventKind enumerates fault types.
type EventKind int

// Fault kinds.
const (
	// KillWorker fail-slows the worker at virtual time At and blackholes
	// migration flows addressed to it.
	KillWorker EventKind = iota
	// KillWorkerOnFlow arms a trigger: the first flow whose name contains
	// Match kills its destination worker at the moment of injection (the
	// matched flow itself is dropped). Deterministic mid-switch kills.
	KillWorkerOnFlow
	// StallFlows pins the rate of every current and future flow whose
	// name contains Match to zero from time At (the flow stays
	// registered and never finishes unless cancelled).
	StallFlows
	// DropFlows silently discards every flow whose name contains Match
	// injected after time At (its completion callback never fires).
	DropFlows
	// FlapNIC sets every server NIC to Gbps at time At and restores the
	// previous speed HoldSec later.
	FlapNIC
	// KillDaemon simulates a control-plane crash: it invokes the
	// injector's registered daemon-kill hook at time At — or, when Match
	// is non-empty, at the injection of the first flow whose name
	// contains Match (the matched flow is dropped), which lands the
	// crash precisely mid-switch. The hook is process-level (SIGKILL in
	// the autopiped daemon, goroutine teardown in tests); with no hook
	// registered the event only records itself in DaemonKilled.
	KillDaemon
	// Partition invokes the injector's registered partition hook at time
	// At — or, when Match is non-empty, at the injection of the first
	// flow whose name contains Match, which severs the hosting daemon's
	// peer links precisely mid-switch. Unlike KillDaemon the matched
	// flow proceeds normally: a network partition isolates the control
	// plane, not the simulated training fabric, so the job keeps running
	// on its (now minority) host. With no hook registered the event only
	// records itself in Partitioned.
	Partition
)

// Event is one scheduled fault.
type Event struct {
	At      float64 // virtual seconds
	Kind    EventKind
	Worker  int     // KillWorker: the GPU to kill
	Match   string  // flow-name substring for the flow-triggered kinds
	Gbps    float64 // FlapNIC: temporary NIC speed
	HoldSec float64 // FlapNIC: how long before restoring
}

// Spec is a reproducible fault schedule.
type Spec struct {
	Events []Event
}

// killSlowdownJobs is the competing-job count a killed worker is pinned
// to: compute slows by (this+1)×, far past any eviction threshold.
const killSlowdownJobs = 1000

// migration flow-name prefixes (see pipeline's runMigFlow): the only
// traffic a dead worker blackholes.
var migrationPrefixes = []string{"migrate/", "finemigrate/"}

// Injector applies a Spec to a running simulation.
type Injector struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	net *netsim.Network

	dead            map[int]bool
	armedKills      []string // pending KillWorkerOnFlow matches
	stallMatch      []string
	dropMatch       []string
	armedDaemonKill []string // pending flow-triggered KillDaemon matches
	daemonKill      func()
	armedPartition  []string // pending flow-triggered Partition matches
	partition       func()

	// Killed lists workers killed so far, in kill order.
	Killed []int
	// DaemonKilled reports that a KillDaemon event fired.
	DaemonKilled bool
	// Partitioned reports that a Partition event fired.
	Partitioned bool
}

// Install schedules the spec's faults and registers the flow-fault hook
// on the network. Call before the simulation runs.
func Install(eng *sim.Engine, cl *cluster.Cluster, net *netsim.Network, spec Spec) *Injector {
	inj := &Injector{eng: eng, cl: cl, net: net, dead: map[int]bool{}}
	net.SetFaultInjector(inj.fault)
	for _, ev := range spec.Events {
		ev := ev
		eng.Schedule(sim.Time(ev.At), fmt.Sprintf("chaos/%s", ev.kindName()), func() {
			inj.apply(ev)
		})
	}
	return inj
}

func (e Event) kindName() string {
	switch e.Kind {
	case KillWorker:
		return fmt.Sprintf("kill(w%d)", e.Worker)
	case KillWorkerOnFlow:
		return fmt.Sprintf("kill-on-flow(%s)", e.Match)
	case StallFlows:
		return fmt.Sprintf("stall(%s)", e.Match)
	case DropFlows:
		return fmt.Sprintf("drop(%s)", e.Match)
	case FlapNIC:
		return fmt.Sprintf("flap(%.1fGbps)", e.Gbps)
	case KillDaemon:
		if e.Match != "" {
			return fmt.Sprintf("kill-daemon-on-flow(%s)", e.Match)
		}
		return "kill-daemon"
	case Partition:
		if e.Match != "" {
			return fmt.Sprintf("partition-on-flow(%s)", e.Match)
		}
		return "partition"
	}
	return "unknown"
}

// SetDaemonKill registers the process-level crash hook KillDaemon
// events invoke. The hook runs on the simulation goroutine, at a
// deterministic virtual time or flow injection.
func (inj *Injector) SetDaemonKill(fn func()) { inj.daemonKill = fn }

// SetPartition registers the hook Partition events invoke — typically a
// closure applying netfault rules that cut the hosting daemon off from
// its fleet peers. Like the daemon-kill hook it runs on the simulation
// goroutine at a deterministic virtual time or flow injection.
func (inj *Injector) SetPartition(fn func()) { inj.partition = fn }

func (inj *Injector) fireDaemonKill() {
	inj.DaemonKilled = true
	if inj.daemonKill != nil {
		inj.daemonKill()
	}
}

func (inj *Injector) firePartition() {
	inj.Partitioned = true
	if inj.partition != nil {
		inj.partition()
	}
}

func (inj *Injector) apply(ev Event) {
	switch ev.Kind {
	case KillWorker:
		inj.kill(ev.Worker)
	case KillWorkerOnFlow:
		inj.armedKills = append(inj.armedKills, ev.Match)
	case StallFlows:
		inj.stallMatch = append(inj.stallMatch, ev.Match)
		inj.net.StallMatching(ev.Match)
	case DropFlows:
		inj.dropMatch = append(inj.dropMatch, ev.Match)
	case KillDaemon:
		if ev.Match != "" {
			inj.armedDaemonKill = append(inj.armedDaemonKill, ev.Match)
			return
		}
		inj.fireDaemonKill()
	case Partition:
		if ev.Match != "" {
			inj.armedPartition = append(inj.armedPartition, ev.Match)
			return
		}
		inj.firePartition()
	case FlapNIC:
		prev := inj.cl.Servers[0].NICBwBps
		inj.cl.SetNICBandwidth(cluster.Gbps(ev.Gbps))
		inj.net.OnCapacityChange()
		inj.eng.After(sim.Time(ev.HoldSec), "chaos/flap-restore", func() {
			inj.cl.SetNICBandwidth(prev)
			inj.net.OnCapacityChange()
		})
	}
}

// kill fail-slows the worker and starts blackholing migration traffic
// addressed to it. The capacity notification is deferred one event so a
// kill fired from inside flow injection does not re-enter the network's
// rate computation.
func (inj *Injector) kill(w int) {
	if inj.dead[w] {
		return
	}
	inj.dead[w] = true
	inj.Killed = append(inj.Killed, w)
	inj.cl.SetCompetingJobs(w, killSlowdownJobs)
	inj.eng.After(0, "chaos/kill-capacity", func() {
		inj.net.OnCapacityChange()
	})
}

// Dead reports whether the worker has been killed.
func (inj *Injector) Dead(w int) bool { return inj.dead[w] }

// fault is the netsim hook, consulted at every flow injection. Local
// (same-worker or zero-byte) transfers bypass injection entirely. The
// flow's name is rendered only when some trigger could match it.
func (inj *Injector) fault(src, dst int, n netsim.Name) netsim.FlowFault {
	if len(inj.armedDaemonKill)+len(inj.armedPartition)+len(inj.armedKills)+
		len(inj.dropMatch)+len(inj.stallMatch) == 0 && !inj.dead[dst] {
		return netsim.FaultNone
	}
	name := n.String()
	for i, match := range inj.armedDaemonKill {
		if strings.Contains(name, match) {
			inj.armedDaemonKill = append(inj.armedDaemonKill[:i], inj.armedDaemonKill[i+1:]...)
			// The crash hook may never return (SIGKILL, Goexit). If it
			// does — recording-only injectors — the matched flow is
			// dropped, like any transfer torn by a process death.
			inj.fireDaemonKill()
			return netsim.FaultDrop
		}
	}
	for i, match := range inj.armedPartition {
		if strings.Contains(name, match) {
			inj.armedPartition = append(inj.armedPartition[:i], inj.armedPartition[i+1:]...)
			// Control-plane partition only: the matched flow delivers.
			inj.firePartition()
			break
		}
	}
	for i, match := range inj.armedKills {
		if strings.Contains(name, match) {
			inj.armedKills = append(inj.armedKills[:i], inj.armedKills[i+1:]...)
			inj.kill(dst)
			return netsim.FaultDrop
		}
	}
	if inj.dead[dst] && isMigration(name) {
		return netsim.FaultDrop
	}
	for _, match := range inj.dropMatch {
		if strings.Contains(name, match) {
			return netsim.FaultDrop
		}
	}
	for _, match := range inj.stallMatch {
		if strings.Contains(name, match) {
			return netsim.FaultStall
		}
	}
	return netsim.FaultNone
}

func isMigration(name string) bool {
	for _, p := range migrationPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// CheckInvariants verifies the engine's post-switch consistency: the
// running plan is structurally valid (every layer owned by exactly one
// stage, no worker assigned twice), it matches the committed
// configuration, and — when no switch is in flight — no switch state is
// stranded. Chaos tests assert this after every switch outcome.
func CheckInvariants(e *pipeline.AsyncEngine, numLayers, numGPUs int) error {
	p := e.Plan()
	if err := p.Validate(numLayers, numGPUs); err != nil {
		return fmt.Errorf("chaos: running plan invalid: %w", err)
	}
	if cp := e.CommittedPlan(); !p.Equal(cp) {
		return fmt.Errorf("chaos: running plan %s diverges from committed %s", p, cp)
	}
	if !e.Switching() {
		if err := e.SwitchIdle(); err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
	}
	return nil
}

// SortedKilled returns the killed workers in ascending order (test
// convenience; kill order is preserved in Killed).
func (inj *Injector) SortedKilled() []int {
	out := append([]int(nil), inj.Killed...)
	sort.Ints(out)
	return out
}
