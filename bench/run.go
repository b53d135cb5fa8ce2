package bench

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"

	"autopipe"
	"autopipe/internal/journal"
)

// Config is one benchmark run.
type Config struct {
	Workload Workload
	Seed     int64
	// Window is the load phase: the span of the arrival schedule.
	Window time.Duration
	// Trace hosts the daemons in-process and reports per-layer metrics;
	// otherwise Autopiped is spawned and end-to-end metrics are reported.
	Trace     bool
	Autopiped string
	// WorkDir receives journals, daemon logs, the CPU profile and spans.
	WorkDir string
	// Setups is how many times the daemons are started; setup_s is the
	// median and the last start serves the load.
	Setups int
}

// drainWindow bounds the wait for accepted jobs after the last arrival.
const drainWindow = 60 * time.Second

// Run performs one run. An error means the run could not be measured; a
// measured run with failed operations returns a Result whose Correct is
// false.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	w := cfg.Workload
	if err := os.RemoveAll(cfg.WorkDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	bodies, err := w.bodies()
	if err != nil {
		return nil, err
	}
	arrivals := w.Schedule(cfg.Seed, cfg.Window)
	res := newResult(cfg, len(arrivals))

	probe := startProbe()
	defer probe.slowdown()
	var (
		dep    deployment
		hosts  *hosted // the traced run's in-process daemons
		tr     *tracer
		setups []time.Duration
	)
	for i := 0; i < max(cfg.Setups, 1); i++ {
		dir := filepath.Join(cfg.WorkDir, fmt.Sprintf("setup%d", i))
		var d time.Duration
		if cfg.Trace {
			tr = newTracer()
			hosts, d, err = host(ctx, w, dir, tr)
			dep = hosts
		} else {
			var s *spawned
			s, d, err = spawn(ctx, cfg.Autopiped, w, dir)
			dep = s
		}
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, d)
		if i < max(cfg.Setups, 1)-1 {
			if err := dep.stop(); err != nil {
				return nil, fmt.Errorf("set-up %d: %w", i, err)
			}
		}
	}
	defer func() {
		if dep != nil {
			dep.stop()
		}
	}()

	g := newGenerator(genConfig{targets: dep.urls(), bodies: bodies, arrivals: arrivals, tracer: tr})
	var prof *os.File
	if cfg.Trace {
		if prof, err = os.Create(filepath.Join(cfg.WorkDir, "cpu.pprof")); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return nil, err
		}
	}
	cpu0, err := dep.cpu()
	if err != nil {
		return nil, err
	}
	vm0, err := readVMTimes()
	if err != nil {
		return nil, err
	}
	g.run(ctx)
	slowdown := probe.slowdown()
	cpu1, err := dep.cpu()
	if err != nil {
		return nil, err
	}
	vm1, err := readVMTimes()
	if err != nil {
		return nil, err
	}
	loadEnd := g.since()
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, err
		}
	}
	rss, err := dep.peakRSS()
	if err != nil {
		return nil, err
	}
	var jstats journal.Stats
	if hosts != nil {
		jstats = hosts.journalStats()
	}
	stopErr := dep.stop()
	dep = nil
	if stopErr != nil {
		return nil, fmt.Errorf("stopping daemons: %w", stopErr)
	}

	used := make([]bool, len(w.Specs))
	for _, j := range g.jobs {
		used[j.Spec] = used[j.Spec] || j.info != nil
	}
	ref, err := reference(ctx, w, used)
	if err != nil {
		return nil, err
	}
	ls := summarize(g.jobs, ref)
	cpu := cpu1 - cpu0
	var byBucket map[string]time.Duration
	if cfg.Trace {
		if byBucket, err = profileBuckets(filepath.Join(cfg.WorkDir, "cpu.pprof")); err != nil {
			return nil, err
		}
		cpu -= byBucket[bucketGen] // the daemons' share of this process
	}
	res.setLoad(ls, median(setups), cpu, rss, loadEnd)

	if cfg.Trace {
		spans := tr.finish()
		if err := writeSpans(filepath.Join(cfg.WorkDir, "spans.jsonl"), spans); err != nil {
			return nil, err
		}
		res.setLayers(layerInputs{
			load: ls, spans: spans, buckets: byBucket, cpu: cpu,
			journal: jstats, journalBytes: tr.journalBytes.Load(),
			genStart: tr.offset(g.start, 0), genEnd: tr.offset(g.start, loadEnd),
		})
	}
	res.normalize(slowdown, stealShare(vm0, vm1))
	return res, nil
}

// profileBuckets attributes a CPU profile through `go tool pprof -raw`.
func profileBuckets(path string) (map[string]time.Duration, error) {
	cmd := exec.Command("go", "tool", "pprof", "-raw", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	buckets, perr := attributeRaw(out)
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	return buckets, perr
}

// loadStats is what the generator observed, checked against the
// reference outcomes.
type loadStats struct {
	attempted, accepted, shed, done int
	transport, unexpected, notDone  int // failures by kind
	jobFailed, mismatched           int
	problems                        []string  // the first few failures, described
	admit, turnaround               []float64 // ms, from due time
	late                            []float64 // ms, submit start − due
	polls, resultless               int
	jobsPerS                        float64
	simThroughput                   float64 // mean result throughput of done jobs
	controller                      autopipe.ControllerStats
}

func (l loadStats) failed() int {
	return l.transport + l.unexpected + l.notDone + l.jobFailed + l.mismatched
}

// maxProblems bounds how many failures a result describes.
const maxProblems = 5

func summarize(jobs []jobRec, ref []string) loadStats {
	var l loadStats
	problem := func(msg string) {
		if len(l.problems) < maxProblems {
			l.problems = append(l.problems, msg)
		}
	}
	var firstDue, lastDone time.Duration = -1, 0
	for i := range jobs {
		j := &jobs[i]
		l.attempted++
		if firstDue < 0 || j.At < firstDue {
			firstDue = j.At
		}
		l.late = append(l.late, ms(j.late))
		switch {
		case j.status == 0:
			l.transport++
			problem(j.problem)
			continue
		case j.shed():
			l.shed++
			continue
		case !j.accepted():
			l.unexpected++
			problem(j.problem)
			continue
		}
		l.accepted++
		l.admit = append(l.admit, ms(j.answered))
		l.polls += j.polls
		l.resultless += j.resultless
		switch {
		case j.state == "":
			l.notDone++
			problem(fmt.Sprintf("job %s not done by the drain deadline (%s)", j.id, j.problem))
			continue
		case j.info == nil || j.info.Result == nil:
			l.jobFailed++
			problem(j.problem)
			continue
		case outcomeOf(j.info.Result) != ref[j.Spec]:
			l.mismatched++
			problem(fmt.Sprintf("job %s (spec %d) result %s, reference %s", j.id, j.Spec, outcomeOf(j.info.Result), ref[j.Spec]))
			continue
		}
		l.done++
		l.turnaround = append(l.turnaround, ms(j.doneAt-j.At))
		lastDone = max(lastDone, j.doneAt)
		r := j.info.Result
		l.simThroughput += r.Throughput
		c := &l.controller
		c.Decisions += r.Controller.Decisions
		c.SwitchesApplied += r.Controller.SwitchesApplied
		c.SearchSeconds += r.Controller.SearchSeconds
		c.CandidatesScored += r.Controller.CandidatesScored
		c.SearchCacheHits += r.Controller.SearchCacheHits
	}
	if l.done > 0 {
		l.simThroughput /= float64(l.done)
		if span := lastDone - firstDue; span > 0 {
			l.jobsPerS = float64(l.done) / span.Seconds()
		}
	}
	return l
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, 0.5))
}
