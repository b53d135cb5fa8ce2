// Command autopiped is the AutoPipe control-plane daemon: it hosts many
// concurrent simulated AutoPipe-managed training jobs on a bounded
// worker pool and serves a JSON REST API plus Prometheus metrics.
//
//	autopiped -addr :8080 -pool 4 -journal-dir /var/lib/autopiped
//
//	curl -X POST localhost:8080/v1/jobs -d '{"model":"ResNet50","batches":50}'
//	curl localhost:8080/v1/jobs/job-0001
//	curl localhost:8080/metrics
//
// With -journal-dir set the daemon is crash-safe: every job's spec,
// state transitions, periodic controller checkpoints and final result
// are fsync'd to an append-only journal, and on startup the registry
// replays it — re-queueing jobs that were queued and resuming jobs that
// were running from their last checkpoint.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener stops, and
// running jobs get -drain-timeout to finish before being cancelled.
//
// Cluster mode: give each daemon a -node-id and point it at any already
// running peer with -peers, and the daemons federate into one control
// plane — a consistent-hash ring places each job on an owner, any node
// accepts submissions and proxies to the owner, owners replicate their
// journal records to a ring successor, and when a node dies its
// successor adopts the jobs and resumes them from their checkpoints.
//
//	autopiped -addr :8081 -node-id n1 -advertise http://10.0.0.1:8081
//	autopiped -addr :8081 -node-id n2 -advertise http://10.0.0.2:8081 \
//	    -peers http://10.0.0.1:8081
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"autopipe/internal/fleet"
	"autopipe/internal/journal"
	"autopipe/internal/netfault"
	"autopipe/internal/server"
)

// daemonConfig is everything run needs beyond the listener; one struct
// so tests can drive the daemon loop without a flag set.
type daemonConfig struct {
	pool            int
	drainTimeout    time.Duration
	journalDir      string        // "" = ephemeral, no crash safety
	checkpointEvery int           // controller checkpoint cadence (iterations)
	maxQueue        int           // admission-queue bound
	jobTimeout      time.Duration // per-job run deadline (0 = none)
	watchdogQuiet   time.Duration // stuck-job threshold (clamped to [5s, 10m])

	// HTTP hardening: a client that stalls mid-header, trickles a body
	// forever, or parks an idle keep-alive connection must not hold a
	// daemon goroutine/fd indefinitely (0 = the default for each).
	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	idleTimeout       time.Duration

	// Cluster mode (all optional; empty nodeID = classic single daemon).
	nodeID         string        // fleet identity
	advertise      string        // URL peers use to reach this daemon
	peers          []string      // seed peers' advertise URLs
	heartbeatEvery time.Duration // failure-detector period

	// Test-only peer-link fault injection (cluster mode). netfaultSpec
	// holds semicolon-separated rules ("on" = enabled, no initial rules);
	// a non-zero netfaultSeed also enables the injector on its own.
	netfaultSpec string
	netfaultSeed uint64
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		pool         = flag.Int("pool", runtime.GOMAXPROCS(0), "max concurrently simulating jobs")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace period for running jobs on shutdown")
		journalDir   = flag.String("journal-dir", "", "directory for the crash-safe job journal (empty = ephemeral)")
		checkpoint   = flag.Int("checkpoint-every", server.DefaultCheckpointEvery, "controller checkpoint cadence in iterations (0 disables)")
		maxQueue     = flag.Int("max-queue", 256, "max jobs waiting for a pool slot before submissions are shed with 429")
		jobTimeout   = flag.Duration("job-timeout", 0, "per-job wall-clock deadline (0 = none)")
		quiet        = flag.Duration("watchdog-quiet", server.DefaultWatchdogQuiet, "cancel running jobs making no progress for this long (clamped to [5s, 10m], 0 disables)")
		headerTO     = flag.Duration("read-header-timeout", defaultReadHeaderTimeout, "drop connections that stall before finishing their request header")
		readTO       = flag.Duration("read-timeout", defaultReadTimeout, "drop connections that stall while sending a request body")
		idleTO       = flag.Duration("idle-timeout", defaultIdleTimeout, "close keep-alive connections idle this long")
		nodeID       = flag.String("node-id", "", "fleet identity; enables cluster mode (empty = single daemon)")
		advertise    = flag.String("advertise", "", "URL peers use to reach this daemon (default http://<addr>)")
		peers        = flag.String("peers", "", "comma-separated advertise URLs of already-running peers to join")
		heartbeat    = flag.Duration("heartbeat-every", fleet.DefaultHeartbeatEvery, "fleet failure-detector period")
		nfSpec       = flag.String("netfault", "", "TEST ONLY: enable the deterministic peer-link fault injector; semicolon-separated rules like 'src=n1,dst=n2,block=reject' ('on' = no initial rules, steer via POST /v1/netfault)")
		nfSeed       = flag.Uint64("netfault-seed", 0, "TEST ONLY: seed for the fault injector's loss RNG; non-zero also enables the injector with no initial rules")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "autopiped:", err)
		os.Exit(1)
	}
	logger := log.New(os.Stderr, "autopiped: ", log.LstdFlags)
	cfg := daemonConfig{
		pool: *pool, drainTimeout: *drainTimeout,
		journalDir:      *journalDir,
		checkpointEvery: *checkpoint,
		maxQueue:        *maxQueue, jobTimeout: *jobTimeout, watchdogQuiet: *quiet,
		readHeaderTimeout: *headerTO, readTimeout: *readTO, idleTimeout: *idleTO,
		nodeID: *nodeID, advertise: *advertise,
		peers: splitPeers(*peers), heartbeatEvery: *heartbeat,
		netfaultSpec: *nfSpec, netfaultSeed: *nfSeed,
	}
	if cfg.nodeID == "" && (len(cfg.peers) > 0 || cfg.advertise != "") {
		fmt.Fprintln(os.Stderr, "autopiped: -peers/-advertise require -node-id")
		os.Exit(1)
	}
	if cfg.nodeID == "" && (cfg.netfaultSpec != "" || cfg.netfaultSeed != 0) {
		fmt.Fprintln(os.Stderr, "autopiped: -netfault/-netfault-seed require cluster mode (-node-id)")
		os.Exit(1)
	}
	if err := run(ctx, lis, cfg, logger); err != nil {
		fmt.Fprintln(os.Stderr, "autopiped:", err)
		os.Exit(1)
	}
}

// splitPeers parses the -peers flag: comma-separated URLs, blanks
// dropped, trailing slashes trimmed so path joins stay clean.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// buildNetfault constructs the test-only peer-link fault injector when
// the -netfault/-netfault-seed flags ask for one. Rules are
// semicolon-separated ParseRule strings; the literal "on" (or a bare
// non-zero seed) enables the injector with an empty rule set so a
// harness steers it entirely through POST /v1/netfault. Peers are
// addressed by advertised host:port or "*": the daemon only learns peer
// IDs at runtime, so ID-addressed rules resolve for the local node
// alone.
func buildNetfault(cfg daemonConfig, advertise string, logger *log.Logger) (*netfault.Injector, error) {
	if cfg.netfaultSpec == "" && cfg.netfaultSeed == 0 {
		return nil, nil
	}
	seed := cfg.netfaultSeed
	if seed == 0 {
		seed = 1
	}
	inj := netfault.New(seed)
	if u, err := url.Parse(advertise); err == nil && u.Host != "" {
		inj.Bind(cfg.nodeID, u.Host)
	}
	var rules []netfault.Rule
	if spec := cfg.netfaultSpec; spec != "" && spec != "on" {
		for _, part := range strings.Split(spec, ";") {
			if part = strings.TrimSpace(part); part == "" {
				continue
			}
			r, err := netfault.ParseRule(part)
			if err != nil {
				return nil, fmt.Errorf("-netfault rule %q: %w", part, err)
			}
			rules = append(rules, r)
		}
		inj.SetRules(rules...)
	}
	logger.Printf("netfault injector armed (seed %d, %d initial rules) — TEST MODE, peer links may be impaired", seed, len(rules))
	return inj, nil
}

// HTTP hardening defaults: generous for any legitimate client, finite
// for a slow-loris one.
const (
	defaultReadHeaderTimeout = 10 * time.Second
	defaultReadTimeout       = time.Minute
	defaultIdleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the handler with the daemon's connection
// hygiene. Without these timeouts a client that opens a connection and
// never finishes its header (or trickles its body byte by byte) pins a
// goroutine and file descriptor forever — under the soak harness's
// connection churn that is a slow leak that ends in fd exhaustion.
func newHTTPServer(handler http.Handler, cfg daemonConfig) *http.Server {
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: cfg.readHeaderTimeout,
		ReadTimeout:       cfg.readTimeout,
		IdleTimeout:       cfg.idleTimeout,
	}
	if srv.ReadHeaderTimeout <= 0 {
		srv.ReadHeaderTimeout = defaultReadHeaderTimeout
	}
	if srv.ReadTimeout <= 0 {
		srv.ReadTimeout = defaultReadTimeout
	}
	if srv.IdleTimeout <= 0 {
		srv.IdleTimeout = defaultIdleTimeout
	}
	return srv
}

// clampQuiet bounds the watchdog threshold to sane operational values;
// 0 and below disable the watchdog entirely.
func clampQuiet(d time.Duration) time.Duration {
	switch {
	case d <= 0:
		return -1
	case d < 5*time.Second:
		return 5 * time.Second
	case d > 10*time.Minute:
		return 10 * time.Minute
	}
	return d
}

// openJournal opens (or creates) the journal directory, refusing an
// unwritable location with a clear error rather than serving a control
// plane whose durability silently doesn't work.
func openJournal(dir string) (*journal.Journal, []journal.Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal dir %s is not writable: %w", dir, err)
	}
	probe := filepath.Join(dir, ".probe")
	if err := os.WriteFile(probe, []byte("autopiped"), 0o644); err != nil {
		return nil, nil, fmt.Errorf("journal dir %s is not writable: %w", dir, err)
	}
	os.Remove(probe)
	jl, recs, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("opening journal in %s: %w", dir, err)
	}
	return jl, recs, nil
}

// run serves the control plane on lis until ctx is cancelled (the
// signal handler in main), then drains: HTTP shutdown first so no new
// jobs arrive, registry drain second. Factored out of main so the
// daemon lifecycle is testable.
func run(ctx context.Context, lis net.Listener, cfg daemonConfig, logger *log.Logger) error {
	if cfg.checkpointEvery <= 0 {
		cfg.checkpointEvery = -1 // the flag's 0 disables; the registry reads 0 as its default
	}
	opts := server.Options{
		PoolSize:        cfg.pool,
		MaxQueue:        cfg.maxQueue,
		CheckpointEvery: cfg.checkpointEvery,
		JobTimeout:      cfg.jobTimeout,
		WatchdogQuiet:   clampQuiet(cfg.watchdogQuiet),
		// A chaos kill_daemon event is a real crash: the process dies by
		// SIGKILL so nothing — not even deferred cleanup — runs, exactly
		// what the recovery path must withstand.
		DaemonKill: func() {
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
		},
	}
	var recs []journal.Record
	if cfg.journalDir != "" {
		jl, replayed, err := openJournal(cfg.journalDir)
		if err != nil {
			return err
		}
		defer jl.Close()
		opts.Journal = jl
		recs = replayed
		st := jl.Stats()
		if st.TruncatedBytes > 0 || st.DroppedSegments > 0 {
			logger.Printf("journal repaired: %d corrupt tail bytes truncated, %d segments dropped",
				st.TruncatedBytes, st.DroppedSegments)
		}
	}
	// In cluster mode the fleet node wraps the registry (installing its
	// replication hook before any job can emit records) and its handler
	// supersedes the single-node one; otherwise this is the classic
	// standalone daemon.
	var (
		node    *fleet.Node
		reg     *server.Registry
		handler http.Handler
	)
	if cfg.nodeID != "" {
		adv := cfg.advertise
		if adv == "" {
			adv = "http://" + lis.Addr().String()
		}
		inj, err := buildNetfault(cfg, adv, logger)
		if err != nil {
			return err
		}
		node, err = fleet.New(fleet.Config{
			ID:             cfg.nodeID,
			Advertise:      adv,
			Peers:          cfg.peers,
			HeartbeatEvery: cfg.heartbeatEvery,
			Fault:          inj,
			Logf:           logger.Printf,
		}, opts)
		if err != nil {
			return err
		}
		reg = node.Registry()
		handler = node.Handler()
	} else {
		reg = server.NewRegistryWithOptions(opts)
		handler = server.New(reg).Handler()
	}
	if opts.Journal != nil {
		stats, err := reg.Recover(recs)
		if err != nil {
			return fmt.Errorf("journal recovery: %w", err)
		}
		if n := stats.Requeued + stats.Resumed + stats.Restarted + stats.Completed; n > 0 || stats.Skipped > 0 {
			logger.Printf("recovered %d jobs from journal: %d requeued, %d resumed from checkpoint, %d restarted, %d completed (%d records skipped)",
				n, stats.Requeued, stats.Resumed, stats.Restarted, stats.Completed, stats.Skipped)
		}
	}
	srv := newHTTPServer(handler, cfg)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()
	if node != nil {
		// The listener is live, so peers contacted during join can reach
		// us back immediately.
		node.Start()
		logger.Printf("serving on %s as fleet node %q (peers %v, pool %d, queue %d, journal %q)",
			lis.Addr(), cfg.nodeID, cfg.peers, cfg.pool, cfg.maxQueue, cfg.journalDir)
	} else {
		logger.Printf("serving on %s (pool %d, queue %d, journal %q)",
			lis.Addr(), cfg.pool, cfg.maxQueue, cfg.journalDir)
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	logger.Printf("shutting down: draining jobs (timeout %s)", cfg.drainTimeout)

	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := srv.Shutdown(httpCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancelDrain()
	shutdown := reg.Shutdown
	if node != nil {
		// Fleet shutdown hands queued jobs to their new ring owners and
		// announces the leave before draining the local pool.
		shutdown = node.Shutdown
	}
	if err := shutdown(drainCtx); err != nil && !errors.Is(err, context.Canceled) {
		logger.Printf("drain timeout hit, jobs cancelled: %v", err)
	}
	logger.Printf("bye")
	return nil
}
