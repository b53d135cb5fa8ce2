package server

import (
	"context"
	"strings"
	"testing"
	"time"

	"autopipe"
)

func TestMetricsFormat(t *testing.T) {
	r := NewRegistry(3)
	info, err := r.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, info.ID, autopipe.JobDone)
	if err := r.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	WriteMetrics(&b, r)
	out := b.String()

	// Every sample line's family must be declared with HELP and TYPE
	// before use — the exposition-format contract scrapers rely on.
	declared := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			declared[strings.Fields(line)[2]] = true
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if !declared[name] {
			t.Errorf("sample %q precedes its HELP/TYPE declaration", line)
		}
		if !strings.HasPrefix(name, "autopiped_") {
			t.Errorf("metric %q outside the autopiped_ namespace", name)
		}
	}
	for _, want := range []string{
		"autopiped_worker_pool_size 3",
		`autopiped_jobs{state="done"} 1`,
		`autopiped_jobs{state="running"} 0`,
		"autopiped_job_evictions_total{",
		"autopiped_job_switches_aborted_total{",
		"autopiped_job_migration_retries_total{",
		"autopiped_job_evictions_queued_total{",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestSpecDynamics(t *testing.T) {
	// Churn traces are deterministic in the seed and actually perturb
	// the cluster during the run.
	seed := int64(7)
	spec := smallSpec()
	spec.Batches = 60
	spec.ChurnSeed = &seed
	spec.ChurnDurationSec = 30
	cfg, batches, err := spec.build()
	if err != nil {
		t.Fatal(err)
	}
	if batches != 60 || len(cfg.Dynamics) == 0 {
		t.Fatalf("churn spec built %d batches, %d events", batches, len(cfg.Dynamics))
	}
	cfg2, _, err := spec.build()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Dynamics) != len(cfg2.Dynamics) {
		t.Fatalf("churn trace not deterministic: %d vs %d events", len(cfg.Dynamics), len(cfg2.Dynamics))
	}

	spec = smallSpec()
	spec.Trace = []TraceEvent{
		{At: 0.5, Kind: "bandwidth", Gbps: 10},
		{At: 1, Kind: "add_job"},
		{At: 2, Kind: "remove_job"},
	}
	cfg, _, err = spec.build()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Dynamics) != 3 {
		t.Fatalf("explicit trace built %d events", len(cfg.Dynamics))
	}
	for name, events := range invalidTraces() {
		spec := smallSpec()
		spec.Trace = events
		if _, _, err := spec.build(); err == nil {
			t.Errorf("%s: built", name)
		}
	}
}

// invalidTraces are resource traces a spec must not build with:
// TestSpecDynamics and TestInvalidSpecParity share them.
func invalidTraces() map[string][]TraceEvent {
	return map[string][]TraceEvent{
		"negative trace time":    {{At: -1, Kind: "add_job"}},
		"bandwidth without gbps": {{At: 1, Kind: "bandwidth"}},
		"unknown trace kind":     {{At: 1, Kind: "warp"}},
	}
}

func TestSpecClusterShapes(t *testing.T) {
	// Default testbed: 10 GPUs.
	cfg, _, err := smallSpec().build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cluster.NumGPUs() != 10 {
		t.Fatalf("testbed GPUs = %d", cfg.Cluster.NumGPUs())
	}
	// Custom shape.
	spec := JobSpec{Model: "AlexNet", Batches: 5, Servers: 3, GPUsPerServer: 4, GPU: "V100", BandwidthGbps: 100, Workers: 6}
	cfg, _, err = spec.build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cluster.NumGPUs() != 12 || len(cfg.Workers) != 6 {
		t.Fatalf("custom cluster: %d GPUs, %d workers", cfg.Cluster.NumGPUs(), len(cfg.Workers))
	}
	// A registry-built uniform job completes promptly end to end.
	r := NewRegistry(1)
	info, err := r.Submit(JobSpec{Model: "uniform", Batches: 5})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, info.ID, autopipe.JobDone)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := r.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
