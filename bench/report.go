package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"autopipe/internal/journal"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric, its unit and which direction is better.
type metricDef struct {
	name, unit string
	higher     bool
}

// endToEnd are the metrics a user of the service sees, reported by the
// untraced run (and, for the overhead comparison, by the traced one).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "jobs_per_s", unit: "jobs/s", higher: true},
	{name: "admit_p50_ms", unit: "ms"},
	{name: "turnaround_p50_ms", unit: "ms"},
	{name: "cpu_ms_per_job", unit: "ms"},
	{name: "rss_peak_mb", unit: "MiB"},
	{name: "sim_samples_per_s", unit: "samples/s", higher: true},
}

// perLayer are the traced run's metrics, grouped by the layer they
// measure.
var perLayer = func() []metricDef {
	ms := func(names ...string) []metricDef {
		out := make([]metricDef, len(names))
		for i, n := range names {
			out[i] = metricDef{name: n, unit: "ms"}
		}
		return out
	}
	var d []metricDef
	d = append(d, ms("gen.late_p50_ms", "gen.late_p99_ms")...)
	d = append(d, metricDef{name: "gen.polls_per_job", unit: "polls/job"})
	d = append(d, ms("server.submit_p50_ms", "server.submit_p99_ms", "server.durable_p50_ms",
		"server.durable_p99_ms", "server.get_p50_ms", "server.get_p99_ms",
		"server.shed_p50_ms", "server.shed_p99_ms")...)
	d = append(d, metricDef{name: "server.shed_ratio", unit: "ratio"},
		metricDef{name: "journal.appends_per_job", unit: "appends/job"},
		metricDef{name: "journal.syncs_per_append", unit: "ratio"},
		metricDef{name: "journal.bytes_per_job", unit: "B/job"})
	d = append(d, ms("job.queue_wait_p50_ms", "job.queue_wait_p99_ms", "job.run_p50_ms",
		"job.run_p99_ms", "job.checkpoint_p99_ms")...)
	d = append(d, metricDef{name: "job.checkpoints_per_job", unit: "ckpts/job"},
		metricDef{name: "controller.decisions_per_job", unit: "decisions/job"},
		metricDef{name: "controller.search_ms_per_job", unit: "ms"},
		metricDef{name: "controller.candidates_per_job", unit: "cands/job"},
		metricDef{name: "controller.cache_hit_rate", unit: "ratio", higher: true},
		metricDef{name: "controller.switches_per_job", unit: "switches/job"})
	d = append(d, ms("fleet.forward_p50_ms", "fleet.forward_p99_ms", "fleet.replicate_p50_ms",
		"fleet.replicate_p99_ms")...)
	d = append(d, metricDef{name: "fleet.replicate_calls_per_job", unit: "calls/job"},
		metricDef{name: "fleet.proxy_get_p50_ms", unit: "ms"},
		metricDef{name: "fleet.heartbeat_calls_per_s", unit: "calls/s"})
	for _, b := range buckets {
		d = append(d, metricDef{name: b + ".cpu_ms_per_job", unit: "ms"})
	}
	d = append(d, metricDef{name: "trace.cpu_ms_per_job", unit: "ms"},
		metricDef{name: "cpu.attributed_share", unit: "ratio", higher: true})
	return d
}()

// Params pins what a run measured besides the seed.
type Params struct {
	Window     float64 `json:"window_s"`
	Jobs       int     `json:"jobs"`
	Rate       float64 `json:"rate_jobs_per_s"`
	Catalogue  int     `json:"catalogue_specs"`
	Daemons    int     `json:"daemons"`
	Pool       int     `json:"pool"`
	MaxQueue   int     `json:"max_queue"`
	Workers    int     `json:"generator_workers"`
	PollMs     float64 `json:"poll_ms"`
	Setups     int     `json:"setups"`
	InProcess  bool    `json:"in_process"`
	DrainLimit float64 `json:"drain_limit_s"`
}

// Provenance records where a result was measured.
type Provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	Dirty      bool   `json:"dirty"`
	Time       string `json:"time"`
}

func provenance() Provenance {
	p := Provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: "unknown",
		Time: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

// Result is one run's full record, written as one JSON line.
type Result struct {
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Trace      bool       `json:"trace"`
	Params     Params     `json:"params"`
	Provenance Provenance `json:"provenance"`
	Correct    bool       `json:"correct"`
	Attempted  int        `json:"attempted"`
	Failed     int        `json:"failed"`
	// Counts breaks the attempts down by outcome; Problems describes the
	// first few failures.
	Counts   map[string]int `json:"counts"`
	Problems []string       `json:"problems,omitempty"`
	// Samples is the sample count behind each percentile.
	Samples map[string]int `json:"samples"`
	// Metrics are the end-to-end metrics BENCHMARK.json bounds, at the
	// reference host speed; Raw holds them as measured. Extra are
	// end-to-end numbers reported without a bound; Validity checks the
	// run itself.
	Metrics  map[string]Metric `json:"metrics"`
	Raw      map[string]Metric `json:"raw"`
	Extra    map[string]Metric `json:"extra"`
	Validity map[string]Metric `json:"validity"`
	// PerLayer and SelfMs come from the traced run. SelfMs is each span
	// name's self time per done job.
	PerLayer map[string]Metric  `json:"per_layer,omitempty"`
	SelfMs   map[string]float64 `json:"self_ms_per_job,omitempty"`
}

func newResult(cfg Config, jobs int) *Result {
	w := cfg.Workload
	return &Result{
		Workload: w.Name, Seed: cfg.Seed, Trace: cfg.Trace,
		Params: Params{
			Window: cfg.Window.Seconds(), Jobs: jobs, Rate: w.Rate, Catalogue: len(w.Specs),
			Daemons: w.Daemons, Pool: w.Pool, MaxQueue: w.MaxQueue, Workers: runtime.NumCPU(),
			PollMs: ms(pollEvery), Setups: max(cfg.Setups, 1), InProcess: cfg.Trace,
			DrainLimit: drainWindow.Seconds(),
		},
		Provenance: provenance(),
		Metrics:    map[string]Metric{},
		Extra:      map[string]Metric{},
		Validity:   map[string]Metric{},
		Samples:    map[string]int{},
	}
}

// setLoad fills the end-to-end metrics from the generator's observations.
func (r *Result) setLoad(l loadStats, setup, cpu time.Duration, rss int64, elapsed time.Duration) {
	r.Attempted, r.Failed = l.attempted, l.failed()
	r.Correct, r.Problems = r.Failed == 0, l.problems
	r.Counts = map[string]int{
		"attempted": l.attempted, "accepted": l.accepted, "shed": l.shed, "done": l.done,
		"transport_errors": l.transport, "unexpected_status": l.unexpected,
		"not_done_by_drain_deadline": l.notDone, "job_failed": l.jobFailed,
		"result_mismatch": l.mismatched, "done_polls_without_result": l.resultless,
	}
	r.Samples["admit"] = len(l.admit)
	r.Samples["turnaround"] = len(l.turnaround)
	r.Samples["setup"] = r.Params.Setups
	set := func(name string, v float64) { r.Metrics[name] = Metric{Value: v, Unit: unitOf(endToEnd, name)} }
	set("setup_s", setup.Seconds())
	set("jobs_per_s", l.jobsPerS)
	set("admit_p50_ms", quantile(l.admit, 0.50))
	r.Extra["admit_p90_ms"] = Metric{Value: quantile(l.admit, 0.90), Unit: "ms"}
	set("turnaround_p50_ms", quantile(l.turnaround, 0.50))
	r.Extra["turnaround_p90_ms"] = Metric{Value: quantile(l.turnaround, 0.90), Unit: "ms"}
	set("cpu_ms_per_job", perJob(ms(cpu), l.done))
	set("rss_peak_mb", float64(rss)/(1<<20))
	set("sim_samples_per_s", l.simThroughput)
	r.Extra["admit_p99_ms"] = Metric{Value: quantile(l.admit, 0.99), Unit: "ms"}
	r.Extra["turnaround_p99_ms"] = Metric{Value: quantile(l.turnaround, 0.99), Unit: "ms"}
	r.Extra["failed_ratio"] = Metric{Value: float64(r.Failed) / float64(max(l.attempted, 1)), Unit: "ratio"}
	r.Validity["gen.late_p50_ms"] = Metric{Value: quantile(l.late, 0.50), Unit: "ms"}
	r.Validity["gen.late_p99_ms"] = Metric{Value: quantile(l.late, 0.99), Unit: "ms"}
	r.Validity["elapsed_s"] = Metric{Value: elapsed.Seconds(), Unit: "s"}
}

func perJob(v float64, jobs int) float64 {
	if jobs == 0 {
		return 0
	}
	return v / float64(jobs)
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("bench: undefined metric " + name)
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	load         loadStats
	spans        []Span
	buckets      map[string]time.Duration
	cpu          time.Duration // the daemons' CPU over the load window
	journal      journal.Stats // summed over the nodes' journals
	journalBytes int64
	genStart     int64 // load window on the tracer's clock
	genEnd       int64
}

// setLayers fills the per-layer metrics of a traced run.
func (r *Result) setLayers(in layerInputs) {
	l, done := in.load, in.load.done
	r.PerLayer = map[string]Metric{}
	set := func(name string, v float64) { r.PerLayer[name] = Metric{Value: v, Unit: unitOf(perLayer, name)} }
	durs := map[string][]float64{}
	for _, s := range in.spans {
		if s.End < s.Start {
			continue
		}
		key := s.Name
		switch s.Name {
		case "http POST /v1/jobs", "http GET /v1/jobs/{id}":
			if s.Forwarded {
				continue // a fleet hop; the entry span covers it
			}
			if s.Name == "http POST /v1/jobs" && s.Status != 201 {
				key = "shed"
			}
		case "fleet.rpc./v1/fleet/heartbeat":
			if s.Start < in.genStart || s.Start > in.genEnd {
				continue
			}
		}
		durs[key] = append(durs[key], ms(s.dur()))
	}
	pct := func(name, key string, q float64) {
		set(name, quantile(durs[key], q))
		r.Samples[name] = len(durs[key])
	}
	set("gen.late_p50_ms", quantile(l.late, 0.50))
	set("gen.late_p99_ms", quantile(l.late, 0.99))
	set("gen.polls_per_job", perJob(float64(l.polls), done))
	pct("server.submit_p50_ms", "http POST /v1/jobs", 0.50)
	pct("server.submit_p99_ms", "http POST /v1/jobs", 0.99)
	pct("server.durable_p50_ms", "registry.durable", 0.50)
	pct("server.durable_p99_ms", "registry.durable", 0.99)
	pct("server.get_p50_ms", "http GET /v1/jobs/{id}", 0.50)
	pct("server.get_p99_ms", "http GET /v1/jobs/{id}", 0.99)
	pct("server.shed_p50_ms", "shed", 0.50)
	pct("server.shed_p99_ms", "shed", 0.99)
	set("server.shed_ratio", float64(l.shed)/float64(max(l.attempted, 1)))
	set("journal.appends_per_job", perJob(float64(in.journal.Appends), done))
	if in.journal.Appends > 0 {
		set("journal.syncs_per_append", float64(in.journal.Syncs)/float64(in.journal.Appends))
	} else {
		set("journal.syncs_per_append", 0)
	}
	set("journal.bytes_per_job", perJob(float64(in.journalBytes), done))
	pct("job.queue_wait_p50_ms", "job.queue", 0.50)
	pct("job.queue_wait_p99_ms", "job.queue", 0.99)
	pct("job.run_p50_ms", "job.run", 0.50)
	pct("job.run_p99_ms", "job.run", 0.99)
	pct("job.checkpoint_p99_ms", "job.checkpoint", 0.99)
	set("job.checkpoints_per_job", perJob(float64(len(durs["job.checkpoint"])), done))
	c := l.controller
	set("controller.decisions_per_job", perJob(float64(c.Decisions), done))
	set("controller.search_ms_per_job", perJob(c.SearchSeconds*1000, done))
	set("controller.candidates_per_job", perJob(float64(c.CandidatesScored), done))
	if lookups := c.SearchCacheHits + c.CandidatesScored; lookups > 0 {
		set("controller.cache_hit_rate", float64(c.SearchCacheHits)/float64(lookups))
	} else {
		set("controller.cache_hit_rate", 0)
	}
	set("controller.switches_per_job", perJob(float64(c.SwitchesApplied), done))
	pct("fleet.forward_p50_ms", "fleet.rpc./v1/fleet/submit", 0.50)
	pct("fleet.forward_p99_ms", "fleet.rpc./v1/fleet/submit", 0.99)
	pct("fleet.replicate_p50_ms", "fleet.rpc./v1/fleet/replicate", 0.50)
	pct("fleet.replicate_p99_ms", "fleet.rpc./v1/fleet/replicate", 0.99)
	set("fleet.replicate_calls_per_job", perJob(float64(len(durs["fleet.rpc./v1/fleet/replicate"])), done))
	pct("fleet.proxy_get_p50_ms", "fleet.rpc./v1/jobs/{id}", 0.50)
	set("fleet.heartbeat_calls_per_s", float64(len(durs["fleet.rpc./v1/fleet/heartbeat"]))/
		time.Duration(in.genEnd-in.genStart).Seconds())
	var daemonCPU time.Duration
	for _, b := range buckets {
		set(b+".cpu_ms_per_job", perJob(ms(in.buckets[b]), done))
		if b != bucketGen {
			daemonCPU += in.buckets[b]
		}
	}
	set("trace.cpu_ms_per_job", perJob(ms(in.cpu), done))
	set("cpu.attributed_share", float64(daemonCPU)/float64(max(in.cpu, 1)))
	r.SelfMs = selfTime(in.spans)
	for k, v := range r.SelfMs {
		r.SelfMs[k] = perJob(v, done)
	}
}

// normalize reports every time and CPU cost (unit ms or s) at the
// reference host speed, dividing it by the run's slowdown (see
// speedProbe). Rates, sizes and counts stay as measured. Between host
// states whose slowdowns differed by half, CPU per job and the latency
// medians followed the slowdown at about its first power, though a fit
// within one host state, where the slowdown moves by ±25%, reads a
// smaller one.
func (r *Result) normalize(slowdown, steal float64) {
	r.Validity["host.slowdown"] = Metric{Value: slowdown, Unit: "ratio"}
	r.Validity["host.steal"] = Metric{Value: steal, Unit: "ratio"}
	r.Raw = map[string]Metric{}
	for k, m := range r.Metrics {
		r.Raw[k] = m
	}
	for _, metrics := range []map[string]Metric{r.Metrics, r.Extra, r.PerLayer} {
		for k, m := range metrics {
			if m.Unit == "ms" || m.Unit == "s" {
				m.Value /= slowdown
				metrics[k] = m
			}
		}
	}
	for k, v := range r.SelfMs {
		r.SelfMs[k] = v / slowdown
	}
}

// WriteLines prints every metric as "workload metric value unit".
func (r *Result) WriteLines(w io.Writer) {
	line := func(name string, m Metric) { fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, name, m.Value, m.Unit) }
	for _, d := range endToEnd {
		line(d.name, r.Metrics[d.name])
	}
	for _, name := range []string{"admit_p90_ms", "admit_p99_ms", "turnaround_p90_ms", "turnaround_p99_ms", "failed_ratio"} {
		line(name, r.Extra[name])
	}
	for _, name := range []string{"host.slowdown", "host.steal", "gen.late_p50_ms", "gen.late_p99_ms", "elapsed_s"} {
		if _, dup := r.PerLayer[name]; !dup {
			line(name, r.Validity[name])
		}
	}
	if r.PerLayer != nil {
		for _, d := range perLayer {
			line(d.name, r.PerLayer[d.name])
		}
	}
	for _, k := range []string{"attempted", "accepted", "shed", "done", "transport_errors",
		"unexpected_status", "not_done_by_drain_deadline", "job_failed", "result_mismatch",
		"done_polls_without_result"} {
		line("count."+k, Metric{Value: float64(r.Counts[k]), Unit: "count"})
	}
	for _, k := range []string{"admit", "turnaround"} {
		line("samples."+k, Metric{Value: float64(r.Samples[k]), Unit: "count"})
	}
}

// Summary is the one-line result the benchmark prints last: the
// end-to-end metrics of an untraced run, the per-layer ones of a traced
// run.
func (r *Result) Summary() ([]byte, error) {
	m := r.Metrics
	if r.Trace {
		m = r.PerLayer
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, m})
}
