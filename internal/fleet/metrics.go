package fleet

import (
	"fmt"
	"io"
	"sort"
)

// writeFleetMetrics appends the node's fleet telemetry to the standard
// registry metrics in Prometheus text format (version 0.0.4). Same
// dependency-free approach as the server package: HELP/TYPE lines plus
// %q-escaped label values.
func (n *Node) writeFleetMetrics(w io.Writer) {
	peers := n.members.snapshot()
	counts := map[string]int{"alive": 0, "suspect": 0, "dead": 0}
	for _, p := range peers {
		counts[p.State]++
	}

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("autopiped_fleet_peers_alive",
		"Peers this node currently considers alive.", float64(counts["alive"]))
	fmt.Fprintf(w, "# HELP autopiped_fleet_peers Known peers by failure-detector state.\n# TYPE autopiped_fleet_peers gauge\n")
	for _, st := range []string{"alive", "suspect", "dead"} {
		fmt.Fprintf(w, "autopiped_fleet_peers{state=%q} %d\n", st, counts[st])
	}
	gauge("autopiped_fleet_ring_members",
		"Nodes currently in the placement ring (including this one).", float64(n.ring.Len()))
	counter("autopiped_fleet_jobs_adopted_total",
		"Jobs taken over from dead or departed peers.", n.adopted.Load())
	counter("autopiped_fleet_forwarded_requests_total",
		"API requests proxied to the owning node.", n.forwarded.Load())
	counter("autopiped_fleet_replicated_records_total",
		"Journal records streamed to ring successors.", n.replSent.Load())
	counter("autopiped_fleet_replication_dropped_total",
		"Records dropped under replication backpressure (repaired by resync).", n.replDropped.Load())
	counter("autopiped_fleet_replication_errors_total",
		"Replication batches that failed to reach their successor.", n.replErrors.Load())
	fmt.Fprintf(w, "# HELP autopiped_fleet_replicate_posts_total Replicate POSTs sent to ring successors, by what sent them.\n# TYPE autopiped_fleet_replicate_posts_total counter\n")
	for p, name := range replPathNames {
		fmt.Fprintf(w, "autopiped_fleet_replicate_posts_total{path=%q} %d\n", name, n.replPosts[p].Load())
	}
	counter("autopiped_fleet_resync_jobs_total",
		"Jobs full-synced by resyncs: those their successor had not acknowledged, and every job of a drain's final sync.", n.resyncJobs.Load())
	counter("autopiped_fleet_admission_sync_failures_total",
		"Admissions whose synchronous sync failed: the 201 was durable on this node only until a resync.", n.admitSyncFailures.Load())
	counter("autopiped_fleet_handoff_jobs_total",
		"Queued jobs handed to peers during graceful drain.", n.handoffSent.Load())
	counter("autopiped_fleet_handoff_received_total",
		"Jobs accepted on behalf of gateway or draining peers.", n.handoffRecv.Load())
	counter("autopiped_fleet_heartbeats_total",
		"Successful heartbeat round trips.", n.heartbeatsOK.Load())
	counter("autopiped_fleet_heartbeat_failures_total",
		"Heartbeat attempts that failed.", n.heartbeatsBad.Load())

	quorum, minority := 0.0, 0.0
	if n.quorumOK.Load() {
		quorum = 1
	}
	if n.reg.Minority() {
		minority = 1
	}
	gauge("autopiped_fleet_quorum",
		"1 while this node reaches a strict majority of the membership.", quorum)
	gauge("autopiped_fleet_minority",
		"1 while the registry sheds and pauses work for lack of quorum.", minority)
	counter("autopiped_fleet_fence_rejections_total",
		"Replicated records and writes refused for carrying a stale ownership fence.", n.fenceRejections.Load())
	counter("autopiped_fleet_minority_flips_total",
		"Quorum state transitions in either direction.", n.minorityFlips.Load())
	counter("autopiped_fleet_adoptions_suppressed_total",
		"Dead-peer adoptions skipped because this node lacked quorum.", n.adoptSuppressed.Load())
	counter("autopiped_fleet_digest_errors_total",
		"Heal-time fence digest exchanges that failed.", n.digestErrors.Load())

	fmt.Fprintf(w, "# HELP autopiped_fleet_heartbeat_rtt_seconds Latest heartbeat round trip per peer.\n# TYPE autopiped_fleet_heartbeat_rtt_seconds gauge\n")
	sort.Slice(peers, func(i, j int) bool { return peers[i].ID < peers[j].ID })
	for _, p := range peers {
		if p.RTTSec > 0 {
			fmt.Fprintf(w, "autopiped_fleet_heartbeat_rtt_seconds{peer=%q} %g\n", p.ID, p.RTTSec)
		}
	}
}
