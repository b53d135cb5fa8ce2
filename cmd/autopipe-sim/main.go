// Command autopipe-sim runs one configurable training scenario on the
// simulated shared GPU cluster and reports throughput, utilization and
// controller activity.
//
// Examples:
//
//	autopipe-sim -model ResNet50 -bw 25 -batches 50
//	autopipe-sim -model VGG16 -system pipedream -scheme PS -jobs 2
//	autopipe-sim -model AlexNet -system autopipe -trace bw:2:5 -trace job:4
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"autopipe"
	"autopipe/internal/profutil"
	"autopipe/internal/server"
	"autopipe/internal/trace"
)

type traceFlags []string

func (t *traceFlags) String() string { return strings.Join(*t, ",") }
func (t *traceFlags) Set(v string) error {
	*t = append(*t, v)
	return nil
}

func main() {
	var (
		modelName = flag.String("model", "ResNet50", "model: ResNet50|VGG16|AlexNet|BERT48")
		bwGbps    = flag.Float64("bw", 25, "NIC bandwidth in Gbps")
		batches   = flag.Int("batches", 50, "mini-batches to train")
		system    = flag.String("system", "autopipe", "system: baseline|pipedream|autopipe")
		scheme    = flag.String("scheme", "Ring", "sync scheme: PS|Ring")
		workers   = flag.Int("workers", 10, "workers (GPUs) used by the job")
		jobs      = flag.Int("jobs", 0, "competing jobs sharing every GPU")
		procs     = flag.Int("procs", 0, "parallel candidate-scoring goroutines (<=0 means GOMAXPROCS)")
		verbose   = flag.Bool("v", false, "print per-worker utilization")
		compare   = flag.Bool("compare", false, "run all three systems and print a comparison")
		jsonOut   = flag.Bool("json", false, "emit the run as one JSON document on stdout (daemon-API serialisation)")
		oracleBw  = flag.Bool("oracle-bw", false, "profiler reads ground-truth bandwidth instead of estimating from flow completions (system=autopipe)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	var traces traceFlags
	flag.Var(&traces, "trace", "dynamic event, repeatable: bw:<t>:<gbps> | job:<t> | jobend:<t>")
	var chaosSpecs traceFlags
	flag.Var(&chaosSpecs, "chaos", "fault event (system=autopipe only), repeatable: "+
		"kill:<t>:<worker> | killonflow:<substr> | stall:<t>:<substr> | drop:<t>:<substr> | flap:<t>:<gbps>:<holdsec>")
	flag.Parse()

	if *jsonOut && *compare {
		fatalIf(fmt.Errorf("-json and -compare are mutually exclusive"))
	}
	stopProf, err := profutil.Start(*cpuProf, *memProf)
	fatalIf(err)
	defer func() { fatalIf(stopProf()) }()
	m, err := autopipe.ModelByName(*modelName)
	fatalIf(err)
	cl := autopipe.Testbed(autopipe.Gbps(*bwGbps))
	for i := 0; i < *jobs; i++ {
		cl.AddCompetingJob()
	}
	sc, err := parseScheme(*scheme)
	fatalIf(err)
	dyn, err := parseTraces(traces)
	fatalIf(err)
	chaosSpec, err := parseChaos(chaosSpecs)
	fatalIf(err)
	if chaosSpec != nil && (strings.ToLower(*system) != "autopipe" || *compare) {
		fatalIf(fmt.Errorf("-chaos requires -system autopipe (without -compare)"))
	}

	if !*jsonOut {
		fmt.Printf("AutoPipe simulator — %s on %d×P100 @%gGbps, scheme=%s, system=%s\n",
			m.Name, *workers, *bwGbps, *scheme, *system)
		fmt.Printf("  layers=%d params=%.1fM mini-batch=%d\n",
			m.NumLayers(), float64(m.TotalParams())/1e6, m.MiniBatch)
	}

	if *compare {
		runComparison(m, *bwGbps, *jobs, sc, dyn, *workers, *batches)
		return
	}

	sys := strings.ToLower(*system)
	rep := server.RunReport{Model: m.Name, System: sys, Scheme: *scheme, Workers: *workers}
	switch sys {
	case "baseline", "pipedream":
		plan := autopipe.PlanDataParallel(m, autopipe.Workers(*workers))
		if sys == "pipedream" {
			plan = autopipe.PlanPipeDream(m, cl, autopipe.Workers(*workers))
		}
		res, err := autopipe.Measure(autopipe.RunConfig{
			Model: m, Cluster: cl, Plan: plan,
			Scheme: sc, Batches: *batches, Dynamics: dyn,
		})
		fatalIf(err)
		rep.Result = res
		rep.FinalPlan = &plan
		if *jsonOut {
			emitJSON(rep)
			return
		}
		report(res, *verbose)
	case "autopipe":
		t0 := time.Now()
		res, err := autopipe.RunJob(context.Background(), autopipe.JobConfig{
			Model: m, Cluster: cl, Workers: autopipe.Workers(*workers),
			Scheme: sc, Dynamics: dyn, Procs: *procs, Chaos: chaosSpec,
			OracleBandwidth: *oracleBw,
		}, *batches)
		elapsed := time.Since(t0)
		fatalIf(err)
		rep.Result = res.Result
		rep.Controller = &res.Controller
		rep.FinalPlan = &res.FinalPlan
		rep.Decisions = res.Decisions
		if *jsonOut {
			emitJSON(rep)
			return
		}
		report(res.Result, *verbose)
		st := res.Controller
		fmt.Printf("controller: %d decisions, %d switches applied, %.1fms decision time, %d resource changes\n",
			st.Decisions, st.SwitchesApplied, st.DecisionSeconds*1e3, st.ResourceChanges)
		fmt.Printf("search: %d candidates scored, %d cache hits, %.1fms search time, %.2fx parallel speedup\n",
			st.CandidatesScored, st.SearchCacheHits, st.SearchSeconds*1e3, searchSpeedup(st))
		if st.Evictions+st.AbortedSwitches+st.MigrationRetries+st.QueuedEvictions > 0 {
			fmt.Printf("faults: %d evictions, %d aborted switches, %d migration retries, %d queued evictions\n",
				st.Evictions, st.AbortedSwitches, st.MigrationRetries, st.QueuedEvictions)
		}
		fmt.Printf("wall clock: %.2fs real for %.2fs virtual\n", elapsed.Seconds(), res.WallTime)
		fmt.Printf("final plan: %s\n", res.FinalPlan)
		if *verbose {
			for _, d := range res.Decisions[max(len(res.Decisions)-10, 0):] {
				fmt.Println("  decision:", d.String())
			}
		}
	default:
		fatalIf(fmt.Errorf("unknown system %q", *system))
	}
}

// emitJSON writes the report as one indented JSON document on stdout.
func emitJSON(rep server.RunReport) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	fatalIf(enc.Encode(rep))
}

// runComparison measures Baseline, PipeDream and AutoPipe on identical
// fresh clusters and prints one line each.
func runComparison(m *autopipe.Model, bwGbps float64, jobs int, sc autopipe.SyncScheme, dyn autopipe.Trace, workers, batches int) {
	mkCluster := func() *autopipe.Cluster {
		cl := autopipe.Testbed(autopipe.Gbps(bwGbps))
		for i := 0; i < jobs; i++ {
			cl.AddCompetingJob()
		}
		return cl
	}
	fmt.Printf("%-12s %12s %12s\n", "system", "samples/s", "wall time")
	for _, name := range []string{"baseline", "pipedream", "autopipe"} {
		var tp, wall float64
		switch name {
		case "baseline":
			cl := mkCluster()
			res, err := autopipe.Measure(autopipe.RunConfig{
				Model: m, Cluster: cl, Plan: autopipe.PlanDataParallel(m, autopipe.Workers(workers)),
				Scheme: sc, Batches: batches, Dynamics: dyn,
			})
			fatalIf(err)
			tp, wall = res.Throughput, res.WallTime
		case "pipedream":
			cl := mkCluster()
			res, err := autopipe.Measure(autopipe.RunConfig{
				Model: m, Cluster: cl, Plan: autopipe.PlanPipeDream(m, cl, autopipe.Workers(workers)),
				Scheme: sc, Batches: batches, Dynamics: dyn,
			})
			fatalIf(err)
			tp, wall = res.Throughput, res.WallTime
		default:
			res, err := autopipe.RunJob(context.Background(), autopipe.JobConfig{
				Model: m, Cluster: mkCluster(), Workers: autopipe.Workers(workers),
				Scheme: sc, Dynamics: dyn,
			}, batches)
			fatalIf(err)
			tp, wall = res.Throughput, res.WallTime
		}
		fmt.Printf("%-12s %12.1f %11.2fs\n", name, tp, wall)
	}
}

// searchSpeedup estimates the realised parallel speedup of candidate
// scoring: aggregate per-candidate predictor time over elapsed search
// time (1.0 means effectively serial).
func searchSpeedup(st autopipe.ControllerStats) float64 {
	if st.SearchSeconds <= 0 {
		return 0
	}
	return st.ScoreSeconds / st.SearchSeconds
}

func report(res autopipe.Result, verbose bool) {
	fmt.Printf("throughput: %.1f samples/sec (%d batches in %.2fs virtual, startup %.2fs)\n",
		res.Throughput, res.Batches, res.WallTime, res.StartupTime)
	if verbose {
		var ids []int
		for w := range res.Utilization {
			ids = append(ids, w)
		}
		sort.Ints(ids)
		for _, w := range ids {
			fmt.Printf("  worker %2d utilization %5.1f%%\n", w, res.Utilization[w]*100)
		}
	}
}

func parseScheme(s string) (autopipe.SyncScheme, error) {
	switch strings.ToLower(s) {
	case "ps":
		return autopipe.ParameterServer, nil
	case "ring":
		return autopipe.RingAllReduce, nil
	}
	return 0, fmt.Errorf("unknown scheme %q", s)
}

func parseTraces(specs []string) (autopipe.Trace, error) {
	var tr autopipe.Trace
	for _, s := range specs {
		parts := strings.Split(s, ":")
		switch parts[0] {
		case "bw":
			if len(parts) != 3 {
				return nil, fmt.Errorf("bad trace %q, want bw:<t>:<gbps>", s)
			}
			at, err1 := strconv.ParseFloat(parts[1], 64)
			g, err2 := strconv.ParseFloat(parts[2], 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bad trace %q", s)
			}
			tr = append(tr, autopipe.TraceEvent{At: at, Kind: trace.SetBandwidth, Value: autopipe.Gbps(g)})
		case "job":
			at, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				return nil, fmt.Errorf("bad trace %q", s)
			}
			tr = append(tr, autopipe.TraceEvent{At: at, Kind: trace.AddJob})
		case "jobend":
			at, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				return nil, fmt.Errorf("bad trace %q", s)
			}
			tr = append(tr, autopipe.TraceEvent{At: at, Kind: trace.RemoveJob})
		default:
			return nil, fmt.Errorf("unknown trace kind %q", parts[0])
		}
	}
	return tr, nil
}

// parseChaos turns repeatable -chaos specs into a fault schedule; nil
// when no specs were given.
func parseChaos(specs []string) (*autopipe.ChaosSpec, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	var out autopipe.ChaosSpec
	for _, s := range specs {
		parts := strings.Split(s, ":")
		switch parts[0] {
		case "kill":
			if len(parts) != 3 {
				return nil, fmt.Errorf("bad chaos %q, want kill:<t>:<worker>", s)
			}
			at, err1 := strconv.ParseFloat(parts[1], 64)
			w, err2 := strconv.Atoi(parts[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bad chaos %q", s)
			}
			out.Events = append(out.Events, autopipe.ChaosEvent{
				At: at, Kind: autopipe.ChaosKillWorker, Worker: w})
		case "killonflow":
			if len(parts) != 2 || parts[1] == "" {
				return nil, fmt.Errorf("bad chaos %q, want killonflow:<substr>", s)
			}
			out.Events = append(out.Events, autopipe.ChaosEvent{
				Kind: autopipe.ChaosKillWorkerOnFlow, Match: parts[1]})
		case "stall", "drop":
			if len(parts) != 3 || parts[2] == "" {
				return nil, fmt.Errorf("bad chaos %q, want %s:<t>:<substr>", s, parts[0])
			}
			at, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				return nil, fmt.Errorf("bad chaos %q", s)
			}
			kind := autopipe.ChaosStallFlows
			if parts[0] == "drop" {
				kind = autopipe.ChaosDropFlows
			}
			out.Events = append(out.Events, autopipe.ChaosEvent{
				At: at, Kind: kind, Match: parts[2]})
		case "flap":
			if len(parts) != 4 {
				return nil, fmt.Errorf("bad chaos %q, want flap:<t>:<gbps>:<holdsec>", s)
			}
			at, err1 := strconv.ParseFloat(parts[1], 64)
			g, err2 := strconv.ParseFloat(parts[2], 64)
			hold, err3 := strconv.ParseFloat(parts[3], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("bad chaos %q", s)
			}
			out.Events = append(out.Events, autopipe.ChaosEvent{
				At: at, Kind: autopipe.ChaosFlapNIC, Gbps: g, HoldSec: hold})
		default:
			return nil, fmt.Errorf("unknown chaos kind %q", parts[0])
		}
	}
	return &out, nil
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "autopipe-sim:", err)
		os.Exit(1)
	}
}
