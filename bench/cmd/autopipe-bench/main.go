// Command autopipe-bench is the repository benchmark. It is run through
// bench/run.sh from the repository root, which builds it and autopiped
// from the checkout first:
//
//	bash bench/run.sh -workload paper-mix -seed 1 -seconds 30 -trace 0
//	bash bench/run.sh -workload paper-mix -seed 1 -seconds 30 -trace 1
//	bash bench/run.sh -compare parent.jsonl change.jsonl
//
// A run prints every metric as "workload metric value unit", appends its
// full result as one JSON line to -out, and prints a one-line JSON
// summary last. It exits 1 when an operation failed or a job's result
// differs from the reference run of its spec, and 2 when it could not
// measure at all.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"autopipe/bench"
)

// setups is how many times each run starts its daemons; setup_s is the
// median, which a single start-up (~4 ms, fsync included) is too noisy
// to give. A fleet's start-up waits about a second for heartbeats to
// complete the ring and repeats to 0.1%, so fleetSetups serve.
const (
	setups      = 9
	fleetSetups = 3
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload  = flag.String("workload", "", "workload to run (default: every workload in turn)")
		seed      = flag.Int64("seed", 1, "seed of the arrival schedule and spec order")
		seconds   = flag.Int("seconds", 30, "length of the load phase in seconds")
		trace     = flag.Int("trace", 0, "1 = host the daemons in-process and report per-layer metrics")
		autopiped = flag.String("autopiped", "", "autopiped binary for the untraced run")
		out       = flag.String("out", ".bench_build/results.jsonl", "file each run appends its full result to")
		workdir   = flag.String("workdir", ".bench_build/run", "directory for journals, logs, profiles and spans")
		compare   = flag.Bool("compare", false, "compare two result files given as arguments: A (parent) B (change)")
		spec      = flag.String("benchmark", "BENCHMARK.json", "benchmark definition read by -compare")
	)
	flag.Parse()
	if *compare {
		return runCompare(*spec, flag.Args())
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "autopipe-bench: -trace takes 0 or 1")
		return 2
	}
	if *trace == 0 && *autopiped == "" {
		fmt.Fprintln(os.Stderr, "autopipe-bench: the untraced run needs -autopiped")
		return 2
	}
	workloads := bench.Workloads
	if *workload != "" {
		w, err := bench.WorkloadByName(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "autopipe-bench:", err)
			return 2
		}
		workloads = []bench.Workload{w}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := 0
	for _, w := range workloads {
		dir, n := filepath.Join(*workdir, w.Name), setups
		if w.Daemons > 1 {
			n = fleetSetups
		}
		if *trace == 1 {
			// The traced run reports per-layer metrics; one start-up serves.
			dir, n = dir+"-trace", 1
		}
		res, err := bench.Run(ctx, bench.Config{
			Workload: w, Seed: *seed, Window: time.Duration(*seconds) * time.Second,
			Trace: *trace == 1, Autopiped: *autopiped, WorkDir: dir, Setups: n,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "autopipe-bench: %s: %v\n", w.Name, err)
			return 2
		}
		if err := appendResult(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "autopipe-bench:", err)
			return 2
		}
		res.WriteLines(os.Stdout)
		summary, err := res.Summary()
		if err != nil {
			fmt.Fprintln(os.Stderr, "autopipe-bench:", err)
			return 2
		}
		fmt.Println(string(summary))
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "autopipe-bench: %s: %d of %d operations failed (counts %v)\n",
				w.Name, res.Failed, res.Attempted, res.Counts)
			for _, p := range res.Problems {
				fmt.Fprintln(os.Stderr, "  ", p)
			}
			code = 1
		}
	}
	return code
}

func appendResult(path string, res *bench.Result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runCompare(specPath string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "autopipe-bench: -compare needs two result files: A (parent) B (change)")
		return 2
	}
	spec, err := bench.ReadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "autopipe-bench:", err)
		return 2
	}
	var sides [2][]bench.Result
	for i, p := range args {
		if sides[i], err = bench.ReadResults(p); err != nil {
			fmt.Fprintln(os.Stderr, "autopipe-bench:", err)
			return 2
		}
		fmt.Printf("%c: %s (%d runs)\n", 'A'+i, p, len(sides[i]))
	}
	bench.Compare(os.Stdout, spec, sides[0], sides[1])
	return 0
}
