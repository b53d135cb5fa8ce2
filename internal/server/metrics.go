package server

import (
	"fmt"
	"io"
	"runtime"
	"sort"

	"autopipe"
)

// The Prometheus text exposition format (version 0.0.4) is simple
// enough that a dependency-free encoder fits in a page: one HELP and
// TYPE line per family, then one sample line per label set.

type sample struct {
	labels [2]string // job id label; empty for unlabelled gauges
	value  float64
}

type family struct {
	name, help, typ string
	samples         []sample
}

func (f *family) add(jobID string, v float64) {
	s := sample{value: v}
	if jobID != "" {
		s.labels = [2]string{"job", jobID}
	}
	f.samples = append(f.samples, s)
}

func (f *family) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
	for _, s := range f.samples {
		if s.labels[0] == "" {
			fmt.Fprintf(w, "%s %g\n", f.name, s.value)
			continue
		}
		// %q escapes backslash, double-quote and newline — exactly the
		// exposition format's label-value escaping.
		fmt.Fprintf(w, "%s{%s=%q} %g\n", f.name, s.labels[0], s.labels[1], s.value)
	}
}

// WriteMetrics renders the registry's state in Prometheus text format.
func WriteMetrics(w io.Writer, r *Registry) {
	jobs := r.summaries()

	depth := &family{name: "autopiped_registry_depth", typ: "gauge",
		help: "Jobs waiting for a worker-pool slot."}
	pool := &family{name: "autopiped_worker_pool_size", typ: "gauge",
		help: "Maximum concurrently simulating jobs."}
	states := &family{name: "autopiped_jobs", typ: "gauge",
		help: "Jobs by lifecycle state."}
	iter := &family{name: "autopiped_job_iterations_total", typ: "counter",
		help: "Completed mini-batches per job."}
	tp := &family{name: "autopiped_job_throughput_samples_per_sec", typ: "gauge",
		help: "Steady-state training throughput per job."}
	switches := &family{name: "autopiped_job_switches_applied_total", typ: "counter",
		help: "Reconfigurations committed on the pipeline per job."}
	predCost := &family{name: "autopiped_job_switch_cost_predicted_seconds_total", typ: "counter",
		help: "Cost-model estimate summed over applied switches per job."}
	realCost := &family{name: "autopiped_job_switch_cost_realized_seconds_total", typ: "counter",
		help: "Virtual seconds switches actually took, decision to commit, per job."}
	decisions := &family{name: "autopiped_job_decisions_total", typ: "counter",
		help: "Reconfiguration decisions evaluated per job."}
	candidates := &family{name: "autopiped_job_search_candidates_total", typ: "counter",
		help: "Candidate partitions scored by the predictor per job."}
	cacheHits := &family{name: "autopiped_job_search_cache_hits_total", typ: "counter",
		help: "Candidate scores served by the plan-hash memo cache per job."}
	cacheHitRate := &family{name: "autopiped_job_search_cache_hit_rate", typ: "gauge",
		help: "Fraction of candidate score lookups served by the memo cache per job."}
	searchSecs := &family{name: "autopiped_job_search_seconds_total", typ: "counter",
		help: "Real seconds spent scoring candidates per job."}
	evictions := &family{name: "autopiped_job_evictions_total", typ: "counter",
		help: "Workers evicted after failure detection per job."}
	aborted := &family{name: "autopiped_job_switches_aborted_total", typ: "counter",
		help: "Reconfigurations rolled back by the switch watchdog per job."}
	migRetries := &family{name: "autopiped_job_migration_retries_total", typ: "counter",
		help: "Weight-migration transfers re-sent after a per-flow deadline per job."}
	queuedEv := &family{name: "autopiped_job_evictions_queued_total", typ: "counter",
		help: "Evictions that first had to abort an in-progress switch per job."}
	queueLimit := &family{name: "autopiped_admission_queue_limit", typ: "gauge",
		help: "Submissions beyond this queue depth are shed with 429."}
	shed := &family{name: "autopiped_jobs_shed_total", typ: "counter",
		help: "Submissions refused because the admission queue was full."}
	minorityShed := &family{name: "autopiped_jobs_minority_shed_total", typ: "counter",
		help: "Submissions refused because the node was in a minority partition."}
	fencedOut := &family{name: "autopiped_jobs_fenced_out_total", typ: "counter",
		help: "Local job copies discarded because a peer owns them at a higher fence."}
	fenceRejected := &family{name: "autopiped_fence_rejections_total", typ: "counter",
		help: "Adoption attempts refused for carrying a stale ownership fence."}
	drainRefused := &family{name: "autopiped_jobs_drain_refused_total", typ: "counter",
		help: "Queued jobs refused a pool slot because shutdown had begun."}
	watchdogKills := &family{name: "autopiped_watchdog_kills_total", typ: "counter",
		help: "Jobs cancelled by the stuck-job watchdog."}
	deadlineKills := &family{name: "autopiped_deadline_kills_total", typ: "counter",
		help: "Jobs cancelled by the per-job run deadline."}
	checkpoints := &family{name: "autopiped_checkpoints_total", typ: "counter",
		help: "Controller checkpoints journaled across all jobs."}
	journalAppends := &family{name: "autopiped_journal_appends_total", typ: "counter",
		help: "Records fsync'd to the job journal."}
	journalSyncs := &family{name: "autopiped_journal_syncs_total", typ: "counter",
		help: "Fsync barriers paid by journal appends; group commit shares one across many records."}
	journalErrors := &family{name: "autopiped_journal_errors_total", typ: "counter",
		help: "Journal appends or compactions that failed."}
	journalSegments := &family{name: "autopiped_journal_segments", typ: "gauge",
		help: "Live journal segment files."}
	journalCompactions := &family{name: "autopiped_journal_compactions_total", typ: "counter",
		help: "Journal compactions performed."}
	journalTruncated := &family{name: "autopiped_journal_truncated_bytes_total", typ: "counter",
		help: "Corrupted tail bytes discarded during journal replay."}
	recovered := &family{name: "autopiped_recovered_jobs_total", typ: "counter",
		help: "Jobs rebuilt from the journal after a restart, by kind."}
	retryAfter := &family{name: "autopiped_retry_after_seconds", typ: "gauge",
		help: "Retry-After hint currently handed to shed submissions."}
	rss := &family{name: "autopiped_process_resident_memory_bytes", typ: "gauge",
		help: "Resident set size of the daemon process (Linux)."}
	heap := &family{name: "autopiped_go_heap_alloc_bytes", typ: "gauge",
		help: "Bytes of allocated heap objects (runtime.MemStats.HeapAlloc)."}
	goroutines := &family{name: "autopiped_go_goroutines", typ: "gauge",
		help: "Live goroutines in the daemon process."}

	pool.add("", float64(r.PoolSize()))
	queued := 0
	counts := map[autopipe.JobState]int{}
	for _, job := range jobs {
		id, ctl := job.id, &job.ctl
		counts[job.state]++
		if job.state == autopipe.JobQueued {
			queued++
		}
		iter.add(id, float64(job.iteration))
		tp.add(id, job.throughput)
		switches.add(id, float64(ctl.SwitchesApplied))
		predCost.add(id, ctl.SwitchSecondsPredicted)
		realCost.add(id, ctl.SwitchSecondsRealized)
		decisions.add(id, float64(ctl.Decisions))
		candidates.add(id, float64(ctl.CandidatesScored))
		cacheHits.add(id, float64(ctl.SearchCacheHits))
		cacheHitRate.add(id, ctl.SearchCacheHitRate)
		searchSecs.add(id, ctl.SearchSeconds)
		evictions.add(id, float64(ctl.Evictions))
		aborted.add(id, float64(ctl.AbortedSwitches))
		migRetries.add(id, float64(ctl.MigrationRetries))
		queuedEv.add(id, float64(ctl.QueuedEvictions))
	}
	depth.add("", float64(queued))
	allStates := []autopipe.JobState{autopipe.JobQueued, autopipe.JobRunning,
		autopipe.JobDone, autopipe.JobFailed, autopipe.JobCancelled}
	for _, s := range allStates {
		states.samples = append(states.samples, sample{
			labels: [2]string{"state", string(s)}, value: float64(counts[s]),
		})
	}

	c := r.Counters()
	queueLimit.add("", float64(r.MaxQueue()))
	shed.add("", float64(c.Shed))
	minorityShed.add("", float64(c.MinorityShed))
	fencedOut.add("", float64(c.FencedOut))
	fenceRejected.add("", float64(c.FenceRejected))
	drainRefused.add("", float64(c.DrainRefused))
	watchdogKills.add("", float64(c.WatchdogKills))
	deadlineKills.add("", float64(c.DeadlineKills))
	checkpoints.add("", float64(c.Checkpoints))
	journalErrors.add("", float64(c.JournalErrors))
	for _, kind := range []struct {
		name  string
		value int64
	}{
		{"requeued", c.RecoveredRequeued},
		{"resumed", c.RecoveredResumed},
		{"restarted", c.RecoveredRestarted},
		{"completed", c.RecoveredCompleted},
	} {
		recovered.samples = append(recovered.samples, sample{
			labels: [2]string{"kind", kind.name}, value: float64(kind.value),
		})
	}

	retryAfter.add("", float64(r.RetryAfterSeconds()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap.add("", float64(ms.HeapAlloc))
	goroutines.add("", float64(runtime.NumGoroutine()))

	fams := []*family{depth, pool, states, iter, tp, switches, predCost, realCost,
		decisions, candidates, cacheHits, cacheHitRate, searchSecs,
		evictions, aborted, migRetries, queuedEv,
		queueLimit, shed, minorityShed, fencedOut, fenceRejected,
		drainRefused, watchdogKills, deadlineKills,
		checkpoints, journalErrors, recovered, retryAfter, heap, goroutines}
	if bytes, ok := residentMemoryBytes(); ok {
		rss.add("", float64(bytes))
		fams = append(fams, rss)
	}
	if js, ok := r.JournalStats(); ok {
		journalAppends.add("", float64(js.Appends))
		journalSyncs.add("", float64(js.Syncs))
		journalSegments.add("", float64(r.JournalSegments()))
		journalCompactions.add("", float64(js.Compactions))
		journalTruncated.add("", float64(js.TruncatedBytes))
		fams = append(fams, journalAppends, journalSyncs, journalSegments, journalCompactions, journalTruncated)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		f.write(w)
	}
}
