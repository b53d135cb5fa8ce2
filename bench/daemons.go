package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"autopipe/internal/fleet"
	"autopipe/internal/journal"
	"autopipe/internal/server"
)

// deployment is a running set of daemons the generator can load.
type deployment interface {
	urls() []string
	// cpu is the CPU time (user+system) the daemons have used so far.
	cpu() (time.Duration, error)
	// peakRSS is the highest resident set size of a daemon, in bytes.
	peakRSS() (int64, error)
	// stop shuts the daemons down gracefully and waits for them.
	stop() error
}

// spawned is a set of real autopiped processes.
type spawned struct {
	procs []*exec.Cmd
	addrs []string
	logs  []*os.File
}

// freeAddr reserves a loopback port and releases it for a daemon to bind.
func freeAddr() (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := lis.Addr().String()
	return addr, lis.Close()
}

// daemonArgs is the command line of daemon i; fleet daemons past the
// first join through daemon 0.
func daemonArgs(w Workload, i int, addr, journalDir, seedPeer string) []string {
	args := []string{
		"-addr", addr,
		"-pool", strconv.Itoa(w.Pool),
		"-max-queue", strconv.Itoa(w.MaxQueue),
		"-journal-dir", journalDir,
		"-drain-timeout", "2s",
	}
	if w.Daemons > 1 {
		args = append(args, "-node-id", fmt.Sprintf("n%d", i), "-advertise", "http://"+addr)
		if seedPeer != "" {
			args = append(args, "-peers", seedPeer)
		}
	}
	return args
}

// spawn starts the workload's daemons from bin with journals under dir
// and returns once every one is ready, with the time that took.
func spawn(ctx context.Context, bin string, w Workload, dir string) (*spawned, time.Duration, error) {
	s := &spawned{}
	start := time.Now()
	for i := 0; i < w.Daemons; i++ {
		addr, err := freeAddr()
		if err != nil {
			s.kill()
			return nil, 0, err
		}
		seed := ""
		if i > 0 {
			seed = "http://" + s.addrs[0]
		}
		node := filepath.Join(dir, fmt.Sprintf("n%d", i))
		if err := os.MkdirAll(node, 0o755); err != nil {
			s.kill()
			return nil, 0, err
		}
		log, err := os.Create(node + ".log")
		if err != nil {
			s.kill()
			return nil, 0, err
		}
		cmd := exec.Command(bin, daemonArgs(w, i, addr, node, seed)...)
		cmd.Stderr = log
		if err := cmd.Start(); err != nil {
			log.Close()
			s.kill()
			return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
		}
		s.procs, s.addrs, s.logs = append(s.procs, cmd), append(s.addrs, addr), append(s.logs, log)
		// Daemons start one after another, as the fleet's join protocol
		// needs the seed peer to be serving first.
		if err := waitHealthy(ctx, "http://"+addr); err != nil {
			s.kill()
			return nil, 0, err
		}
	}
	if err := waitRing(ctx, s.urls()); err != nil {
		s.kill()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

func (s *spawned) urls() []string {
	out := make([]string, len(s.addrs))
	for i, a := range s.addrs {
		out[i] = "http://" + a
	}
	return out
}

// kill ends the daemons with SIGKILL; it is for set-ups that are measured
// and then discarded.
func (s *spawned) kill() {
	for i, p := range s.procs {
		p.Process.Kill()
		p.Wait()
		s.logs[i].Close()
	}
	s.procs = nil
}

// stop sends SIGTERM and waits up to 10s per daemon before SIGKILL.
func (s *spawned) stop() error {
	var errs []error
	for i, p := range s.procs {
		p.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- p.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				errs = append(errs, fmt.Errorf("daemon %d: %w", i, err))
			}
		case <-time.After(10 * time.Second):
			p.Process.Kill()
			<-done
			errs = append(errs, fmt.Errorf("daemon %d ignored SIGTERM", i))
		}
		s.logs[i].Close()
	}
	s.procs = nil
	return errors.Join(errs...)
}

func (s *spawned) cpu() (time.Duration, error) {
	var total time.Duration
	for _, p := range s.procs {
		d, err := procCPU(p.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// peakRSS is the highest VmHWM across the daemons.
func (s *spawned) peakRSS() (int64, error) {
	var peak int64
	for _, p := range s.procs {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.Process.Pid))
		if err != nil {
			return 0, err
		}
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
				if err != nil {
					return 0, fmt.Errorf("VmHWM of %d: %w", p.Process.Pid, err)
				}
				peak = max(peak, kb<<10)
			}
		}
	}
	return peak, nil
}

// clockTick is Linux's USER_HZ, the unit of /proc/<pid>/stat CPU times.
const clockTick = 10 * time.Millisecond

// procCPU reads utime+stime of a process from /proc/<pid>/stat. Reading
// /proc does not perturb the daemon, unlike a /metrics scrape.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// readyClient probes readiness. Probing every 200µs keeps the set-up
// time's resolution far below a single daemon's start-up (~4 ms); fleet
// membership converges on the heartbeat period (~1 s), so its probe is
// gentler.
var readyClient = &http.Client{Timeout: time.Second}

const (
	readyPoll = 200 * time.Microsecond
	ringPoll  = 2 * time.Millisecond
)

// waitHealthy polls url/healthz until it answers 200 or 30s pass.
func waitHealthy(ctx context.Context, url string) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		if code, _ := getJSON(ctx, url+"/healthz", nil); code == http.StatusOK {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy: %w", url, ctx.Err())
		case <-time.After(readyPoll):
		}
	}
}

// waitRing returns once every fleet node's ring lists every node; it is
// a no-op for a single daemon.
func waitRing(ctx context.Context, urls []string) error {
	if len(urls) < 2 {
		return nil
	}
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for _, u := range urls {
		for {
			var view struct {
				Ring []string `json:"ring"`
			}
			if code, _ := getJSON(ctx, u+"/v1/cluster", &view); code == http.StatusOK && len(view.Ring) == len(urls) {
				break
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("%s never saw all %d nodes: %w", u, len(urls), ctx.Err())
			case <-time.After(ringPoll):
			}
		}
	}
	return nil
}

// getJSON GETs url and decodes a 200 body into out (when non-nil).
func getJSON(ctx context.Context, url string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := readyClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out == nil {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// hosted is the same deployment served from this process: the traced
// run's daemons, built with the public constructors and the Options the
// autopiped binary builds, wrapped in the tracer's hooks.
type hosted struct {
	servers  []*http.Server
	serveErr chan error
	regs     []*server.Registry
	nodes    []*fleet.Node
	journals []*journal.Journal
	addrs    []string
}

// daemonOptions mirrors cmd/autopiped's server.Options for the workload.
func daemonOptions(w Workload) server.Options {
	return server.Options{
		PoolSize:        w.Pool,
		MaxQueue:        w.MaxQueue,
		CheckpointEvery: server.DefaultCheckpointEvery,
		WatchdogQuiet:   server.DefaultWatchdogQuiet,
	}
}

// host starts the workload's daemons in-process with journals under dir.
func host(ctx context.Context, w Workload, dir string, t *tracer) (*hosted, time.Duration, error) {
	h := &hosted{serveErr: make(chan error, w.Daemons)}
	start := time.Now()
	for i := 0; i < w.Daemons; i++ {
		if err := h.add(w, i, dir, t); err != nil {
			h.stop()
			return nil, 0, err
		}
		if err := waitHealthy(ctx, h.urls()[i]); err != nil {
			h.stop()
			return nil, 0, err
		}
	}
	if err := waitRing(ctx, h.urls()); err != nil {
		h.stop()
		return nil, 0, err
	}
	return h, time.Since(start), nil
}

func (h *hosted) add(w Workload, i int, dir string, t *tracer) error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := lis.Addr().String()
	jl, recs, err := journal.Open(filepath.Join(dir, fmt.Sprintf("n%d", i)), journal.Options{})
	if err != nil {
		lis.Close()
		return err
	}
	h.journals = append(h.journals, jl)
	name := fmt.Sprintf("n%d", i)
	opts := daemonOptions(w)
	opts.Journal = jl
	opts.OnRecord = t.onRecord(name)
	opts.ConfigureJob = t.configureJob
	var (
		reg     *server.Registry
		handler http.Handler
		node    *fleet.Node
	)
	if w.Daemons > 1 {
		var peers []string
		if i > 0 {
			peers = []string{"http://" + h.addrs[0]}
		}
		client := &http.Client{Timeout: 5 * time.Second,
			Transport: transport{t: t, node: name, base: http.DefaultTransport.(*http.Transport).Clone()}}
		node, err = fleet.New(fleet.Config{ID: name, Advertise: "http://" + addr, Peers: peers, Client: client}, opts)
		if err != nil {
			lis.Close()
			return err
		}
		reg, handler = node.Registry(), node.Handler()
		h.nodes = append(h.nodes, node)
	} else {
		reg = server.NewRegistryWithOptions(opts)
		handler = server.New(reg).Handler()
	}
	h.regs = append(h.regs, reg)
	if _, err := reg.Recover(recs); err != nil {
		lis.Close()
		return err
	}
	srv := &http.Server{Handler: t.middleware(name, handler), ReadHeaderTimeout: 10 * time.Second}
	h.servers, h.addrs = append(h.servers, srv), append(h.addrs, addr)
	go func() { h.serveErr <- srv.Serve(lis) }()
	if node != nil {
		node.Start()
	}
	return nil
}

func (h *hosted) urls() []string {
	out := make([]string, len(h.addrs))
	for i, a := range h.addrs {
		out[i] = "http://" + a
	}
	return out
}

// stop shuts the daemons down in the binary's order: HTTP first, then
// the registry (or fleet node) drain, then the journal.
func (h *hosted) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for _, srv := range h.servers {
		errs = append(errs, srv.Shutdown(ctx))
	}
	for range h.servers {
		if err := <-h.serveErr; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	for i, reg := range h.regs {
		if i < len(h.nodes) {
			errs = append(errs, h.nodes[i].Shutdown(ctx))
			continue
		}
		errs = append(errs, reg.Shutdown(ctx))
	}
	for _, jl := range h.journals {
		errs = append(errs, jl.Close())
	}
	h.servers, h.regs, h.nodes, h.journals = nil, nil, nil, nil
	return errors.Join(errs...)
}

// cpu is this whole process's CPU time; the caller subtracts the
// generator's share.
func (h *hosted) cpu() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSS is this process's peak RSS, the generator included.
func (h *hosted) peakRSS() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return ru.Maxrss << 10, nil // Linux reports kilobytes
}

// journalStats sums the journals' counters.
func (h *hosted) journalStats() journal.Stats {
	var sum journal.Stats
	for _, jl := range h.journals {
		st := jl.Stats()
		sum.Appends += st.Appends
		sum.Syncs += st.Syncs
	}
	return sum
}
