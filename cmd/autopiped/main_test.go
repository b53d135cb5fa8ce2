package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"autopipe/internal/journal"
	"autopipe/internal/netfault"
	"autopipe/internal/server"
	"time"
)

// helperEnv flips the test binary into daemon mode: TestMain runs the
// real daemon loop instead of the test suite, so the kill-and-restart
// test can SIGKILL a genuine separate process.
const helperEnv = "AUTOPIPED_TEST_HELPER"

func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) == "1" {
		helperMain()
		return
	}
	os.Exit(m.Run())
}

// helperMain is the subprocess body: listen on an ephemeral port,
// announce it on stdout, serve with a journal until SIGTERM (or until a
// chaos kill_daemon event SIGKILLs the process).
func helperMain() {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	fmt.Printf("ADDR %s\n", lis.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	cfg := daemonConfig{
		pool: 1, drainTimeout: 5 * time.Second,
		journalDir:      os.Getenv("AUTOPIPED_TEST_JOURNAL"),
		checkpointEvery: 25, maxQueue: 64,
		watchdogQuiet: 2 * time.Minute,
	}
	if err := run(ctx, lis, cfg, log.New(os.Stderr, "helper: ", 0)); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
}

// startDaemon launches this test binary as a real autopiped process and
// returns the exec handle plus the base URL it serves on.
func startDaemon(t *testing.T, journalDir string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), helperEnv+"=1", "AUTOPIPED_TEST_JOURNAL="+journalDir)
	cmd.Stderr = io.Discard
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("daemon subprocess printed no address: %v", sc.Err())
	}
	addr, ok := strings.CutPrefix(sc.Text(), "ADDR ")
	if !ok {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("unexpected daemon banner %q", sc.Text())
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained
	return cmd, "http://" + addr
}

func postJob(t *testing.T, base, body string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var created struct {
		ID string `json:"id"`
	}
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &created); err != nil || created.ID == "" {
		t.Fatalf("bad create response: %v %s", err, raw)
	}
	return created.ID
}

type jobView struct {
	Status struct {
		State     string `json:"state"`
		Iteration int    `json:"iteration"`
	} `json:"status"`
	Result *struct {
		Batches int `json:"batches"`
	} `json:"result"`
}

func getJob(t *testing.T, base, id string) (jobView, error) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return jobView{}, err
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return jobView{}, err
	}
	return v, nil
}

func waitJobState(t *testing.T, base, id, want string) jobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		v, err := getJob(t, base, id)
		if err == nil && v.Status.State == want {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s (last: %+v, err %v)", id, want, v, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestKillAndRestartRecovery is the PR's acceptance scenario against
// the real daemon binary: a chaos kill_daemon event SIGKILLs the
// process while one job is running (with checkpoints journaled) and a
// second sits queued. A restarted daemon on the same journal dir must
// resume the running job from its checkpoint, re-queue the queued one,
// and complete both — no job lost.
func TestKillAndRestartRecovery(t *testing.T) {
	journalDir := filepath.Join(t.TempDir(), "journal")
	cmd, base := startDaemon(t, journalDir)

	// ~0.087 virtual s/iteration: the crash lands around iteration 1000,
	// far past the first checkpoint (cadence 25) and well after the
	// queued job's submission below.
	crashID := postJob(t, base, `{"model":"AlexNet","batches":4000,"check_every":3,
		"chaos":[{"kind":"kill_daemon","at":90}]}`)
	deadline := time.Now().Add(60 * time.Second)
	for {
		v, err := getJob(t, base, crashID)
		if err == nil && v.Status.State == "running" && v.Status.Iteration > 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("crash job never got going (last %+v, err %v)", v, err)
		}
		time.Sleep(time.Millisecond)
	}
	queuedID := postJob(t, base, `{"model":"uniform","uniform":{"layers":8},"batches":10}`)

	// The daemon SIGKILLs itself at the chaos event.
	err := cmd.Wait()
	if err == nil {
		t.Fatal("daemon exited cleanly, want SIGKILL")
	}
	ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("daemon died with %v, want SIGKILL", err)
	}

	// Restart on the same journal. Both jobs must complete.
	cmd2, base2 := startDaemon(t, journalDir)
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM)
		cmd2.Wait()
	}()
	resumed := waitJobState(t, base2, crashID, "done")
	if resumed.Result == nil || resumed.Result.Batches != 4000 {
		t.Fatalf("resumed job result = %+v, want the full 4000-batch budget", resumed.Result)
	}
	waitJobState(t, base2, queuedID, "done")

	resp, err := http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`autopiped_recovered_jobs_total{kind="resumed"} 1`,
		`autopiped_recovered_jobs_total{kind="requeued"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRefusesUnwritableJournalDir: a journal location that cannot be
// created must fail startup with a clear error, not serve a control
// plane whose durability silently doesn't work.
func TestRefusesUnwritableJournalDir(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	cfg := daemonConfig{
		pool: 1, drainTimeout: time.Second,
		// A path through a regular file is unwritable for any uid —
		// chmod-based checks are useless when tests run as root.
		journalDir: filepath.Join(blocker, "journal"),
	}
	err = run(context.Background(), lis, cfg, log.New(io.Discard, "", 0))
	if err == nil || !strings.Contains(err.Error(), "journal dir") {
		t.Fatalf("run with unwritable journal dir = %v, want a clear journal error", err)
	}
}

// TestDaemonLifecycle exercises the real daemon loop end to end: serve
// on a TCP listener, accept a job over HTTP, watch it finish, scrape
// metrics, then deliver a real SIGTERM and require a clean drain.
func TestDaemonLifecycle(t *testing.T) {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + lis.Addr().String()
	runErr := make(chan error, 1)
	go func() {
		cfg := daemonConfig{
			pool: 2, drainTimeout: 5 * time.Second,
			journalDir:      filepath.Join(t.TempDir(), "journal"),
			checkpointEvery: server.DefaultCheckpointEvery,
		}
		runErr <- run(ctx, lis, cfg, log.New(io.Discard, "", 0))
	}()

	waitHealthy(t, base)

	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"model":"uniform","uniform":{"layers":8},"batches":10}`))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || created.ID == "" {
		t.Fatalf("POST = %d, id %q", resp.StatusCode, created.ID)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		var info struct {
			Status struct {
				State     string `json:"state"`
				Iteration int    `json:"iteration"`
			} `json:"status"`
		}
		resp, err := http.Get(base + "/v1/jobs/" + created.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if info.Status.State == "done" {
			if info.Status.Iteration != 10 {
				t.Fatalf("done with %d iterations", info.Status.Iteration)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", info.Status.State)
		}
		time.Sleep(time.Millisecond)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), fmt.Sprintf("autopiped_job_iterations_total{job=%q} 10", created.ID)) {
		t.Fatalf("metrics missing job sample:\n%s", metrics)
	}
	if !strings.Contains(string(metrics), "autopiped_journal_appends_total") {
		t.Fatal("metrics missing journal telemetry")
	}

	// The real signal: SIGTERM to our own process, caught by the same
	// signal.NotifyContext wiring main uses.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down after SIGTERM")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestCheckpointEveryZeroDisables: -checkpoint-every 0 disables
// checkpoints, as the flag's help says, rather than falling back to the
// registry's default cadence. A journaled 60-batch job would checkpoint
// twice at that default; here it leaves no checkpoint record and the
// counter stays at 0.
func TestCheckpointEveryZeroDisables(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + lis.Addr().String()
	dir := filepath.Join(t.TempDir(), "journal")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, lis, daemonConfig{
			pool: 1, drainTimeout: 5 * time.Second, journalDir: dir, checkpointEvery: 0,
		}, log.New(io.Discard, "", 0))
	}()
	waitHealthy(t, base)
	id := postJob(t, base, `{"model":"uniform","uniform":{"layers":8},"batches":60}`)
	waitJobState(t, base, id, "done")

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "\nautopiped_checkpoints_total 0\n") {
		t.Errorf("metrics do not read autopiped_checkpoints_total 0:\n%s", metrics)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("daemon run returned %v", err)
	}

	jl, recs, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	completed := false
	for _, rec := range recs {
		switch rec.Type {
		case journal.TypeCheckpoint:
			t.Fatalf("journal holds a checkpoint record for %s with checkpoints disabled", rec.JobID)
		case journal.TypeCompleted:
			completed = true
		}
	}
	if !completed {
		t.Fatal("journal holds no completed record: the job was not journaled")
	}
}

// TestDaemonClusterMode boots two real daemon loops in fleet mode, has
// the second join via the first, submits through one gateway, and
// checks the cluster surface: ring membership in /v1/cluster, the job
// completing with its hosting node stamped, fleet metrics present, and
// both daemons draining cleanly.
func TestDaemonClusterMode(t *testing.T) {
	type daemon struct {
		base   string
		cancel context.CancelFunc
		done   chan error
	}
	start := func(nodeID string, peers []string) daemon {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		d := daemon{base: "http://" + lis.Addr().String(), cancel: cancel, done: make(chan error, 1)}
		go func() {
			cfg := daemonConfig{
				pool: 2, drainTimeout: 5 * time.Second, maxQueue: 64,
				checkpointEvery: server.DefaultCheckpointEvery,
				nodeID:          nodeID, advertise: d.base, peers: peers,
				heartbeatEvery: 20 * time.Millisecond,
			}
			d.done <- run(ctx, lis, cfg, log.New(io.Discard, "", 0))
		}()
		waitHealthy(t, d.base)
		return d
	}
	d1 := start("n1", nil)
	d2 := start("n2", []string{d1.base})

	// Both daemons must converge on a two-member ring.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var view struct {
			Ring []string `json:"ring"`
		}
		resp, err := http.Get(d2.base + "/v1/cluster")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err == nil && len(view.Ring) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never converged: ring %v", view.Ring)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A job through either gateway carries the fleet ID scheme and lands
	// on whichever node the ring picked.
	id := postJob(t, d1.base, `{"model":"uniform","uniform":{"layers":8},"batches":10}`)
	if !strings.HasPrefix(id, "job-n1-") {
		t.Fatalf("fleet job id %q, want a job-n1-* gateway id", id)
	}
	waitJobState(t, d2.base, id, "done")

	resp, err := http.Get(d1.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"autopiped_fleet_peers_alive 1", "autopiped_fleet_ring_members 2"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	for _, d := range []daemon{d2, d1} {
		d.cancel()
		select {
		case err := <-d.done:
			if err != nil {
				t.Fatalf("daemon run returned %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not shut down")
		}
	}
}

// TestDaemonNetfault boots a cluster-mode daemon with the test-only
// fault injector armed via flags and steers it over HTTP: the initial
// rule from -netfault lands, a POST replaces the rule set, and clear
// heals. Also pins the flag-validation path for a malformed rule.
func TestDaemonNetfault(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + lis.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, lis, daemonConfig{
			pool: 1, drainTimeout: 5 * time.Second, maxQueue: 8,
			nodeID: "n1", advertise: base, heartbeatEvery: 50 * time.Millisecond,
			netfaultSpec: "src=n1,dst=*,latency=1ms", netfaultSeed: 7,
		}, log.New(io.Discard, "", 0))
	}()
	waitHealthy(t, base)

	var state struct {
		Rules []netfault.Rule `json:"rules"`
	}
	getState := func() {
		t.Helper()
		resp, err := http.Get(base + "/v1/netfault")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		state.Rules = nil
		if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
			t.Fatal(err)
		}
	}
	getState()
	if len(state.Rules) != 1 || state.Rules[0].Src != "n1" || state.Rules[0].LatencyMS != 1 {
		t.Fatalf("initial rules %+v, want the -netfault flag's latency rule", state.Rules)
	}

	resp, err := http.Post(base+"/v1/netfault", "application/json",
		strings.NewReader(`{"set":[{"src":"n1","dst":"n2","block":"reject"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	getState()
	if len(state.Rules) != 1 || state.Rules[0].Block != netfault.BlockReject {
		t.Fatalf("rules after set %+v, want one reject rule", state.Rules)
	}

	resp, err = http.Post(base+"/v1/netfault", "application/json", strings.NewReader(`{"clear":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	getState()
	if len(state.Rules) != 0 {
		t.Fatalf("rules after clear %+v, want none", state.Rules)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon run returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}

	// A malformed rule must refuse startup, not arm a half-parsed set.
	if _, err := buildNetfault(daemonConfig{nodeID: "n1", netfaultSpec: "src=n1,bogus=1"},
		base, log.New(io.Discard, "", 0)); err == nil {
		t.Fatal("buildNetfault accepted a rule with an unknown key")
	}
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became healthy: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
