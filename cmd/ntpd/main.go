// Command ntpd serves path-based next-trace prediction over TCP and
// doubles as the protocol's load generator.
//
// Serve (the default mode):
//
//	ntpd -addr 127.0.0.1:9191 -admin 127.0.0.1:9192
//	ntpd -addr 127.0.0.1:0 -portfile /tmp/ntpd.port
//	ntpd -shards 4 -queue 2048 -depth 7 -indexbits 16
//	ntpd -inject table:1e-4 -seed 7          # degraded-mode serving
//
// Backends and shadow evaluation:
//
//	ntpd -backend tage                       # serve with the TAGE-style backend
//	ntpd -shadow tage                        # serve hybrid, shadow-evaluate TAGE
//	ntpd -shadow tage,basic                  # several shadows, fan-out per batch
//
// -backend picks the serving predictor backend from the registry
// (basic, hybrid, costreduced, tage, unbounded; default hybrid).
// -shadow names backends to evaluate on live traffic: every applied
// batch is fanned out to one fresh shadow predictor per name, the
// primary alone answers Predict (responses, -verify and
// snapshots are untouched), and /metrics reports each backend's
// accuracy as ntpd_backend_{rounds,correct,miss}_total with role
// "primary"/"shadow" — a live A/B readout before switching -backend.
//
// The server hosts -shards predictor shards; sessions are hashed to
// shards and every session owns a predictor built from the -depth /
// -indexbits / -norhs / -backend flags. SIGINT/SIGTERM trigger a 10 s
// graceful drain: in-flight requests finish, new ones are refused with
// the draining status, then the process exits 0. The admin listener
// (when -admin is set) serves /healthz, /limitz and /metrics
// (Prometheus text, the one place server state is read from: server
// and per-client counters, per-shard sessions, counts of waiting
// requests and op-latency histograms, and live predictor
// hit/miss/replacement counters). -portfile writes the bound data-plane port to a file, for
// scripts that start ntpd on port 0; -adminportfile does the same for
// the admin port, so a scrape of http://127.0.0.1:$(cat f)/metrics
// needs no address parsing.
//
// Admission control:
//
//	echo '{"per_client_rate": 50000, "global_rate": 200000}' > limits.json
//	ntpd -limits-file limits.json    # per-client quota and server-wide cap (traces/s)
//
// Work requests pass through token buckets before they reach a shard:
// one bucket per client tag (announced by the client's hello frame)
// plus one global bucket. A refused request is answered immediately
// with the throttled status and a retry-after hint instead of
// competing for the shard's waiting places, so one greedy client
// cannot starve the rest. Limits change live — without dropping sessions — via SIGHUP
// (re-reads -limits-file) or POST /limitz on the admin plane; the
// JSON shape is {"per_client_rate": ..., "per_client_burst": ...,
// "global_rate": ..., "global_burst": ...}.
//
// Crash safety:
//
//	ntpd -addr ... -checkpoint-dir /var/lib/ntpd   # periodic snapshots + warm restart
//
// With -checkpoint-dir, every session is periodically snapshotted
// (versioned, checksummed frames; atomic rename), one session per hold
// of its shard's lock, and a restarting server reloads them before
// accepting traffic. On SIGTERM the drain additionally spills every
// live session's final state to the directory, so a planned restart
// loses nothing; a failed spill makes the exit status 1. Without
// -checkpoint-dir the drain discards the sessions, counts them in
// ntpd_drain_lost_sessions_total, and exits 0. Every -backend
// checkpoints, unbounded included; an unbounded session whose frame
// outgrows the 8 MiB frame limit fails its checkpoint (and, under
// -failover, its acks) like any state that does not encode.
// The loadgen exercises the client half: every connection is a
// retrying client of -addr, with per-op deadlines, reconnect backoff
// with jitter, and budgeted overload and throttle retries. -failover
// adds snapshot-per-ack session recovery: each session takes its full
// frame at open and a delta with every ack (a full frame again after
// an unbounded table grows), which keeps -verify
// bit-identical across a server kill — including a kill -9 after which
// the server restarts from checkpoints older than the client's acks: it
// refuses each session's next batch as a sequence gap, and the client
// restores its own frame and resends.
//
// Load generation:
//
//	ntpd -loadgen -addr 127.0.0.1:9191 -stream .streams/compress_2000000_16-6.ntps
//	ntpd -loadgen -addr ... -workload compress -len 2000000
//	ntpd -loadgen -addr ... -stream f.ntps -conns 4 -sessions 8 -batch 512 -verify
//
// -loadgen replays a recorded .ntps trace stream (from -stream, or
// captured in process from -workload/-len) through the server: every
// session replays the full stream, batched -batch traces per request
// over the batched wire op (per-trace sequences, suffix-replay dedup),
// and the run reports sustained throughput plus p50/p90/p99 round-trip
// latency. -verify additionally replays the stream in process with the
// same predictor flags and requires each session's server-side stats
// to be bit-identical — the end-to-end correctness anchor for the
// whole serving path. The predictor flags must match the server's, and
// the session ids must be ones the server has never seen (server-side
// predictor state survives the connection, so a repeated run against
// the same server needs -sessionbase to step past the ids an earlier
// run already trained).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pathtrace/internal/faults"
	"pathtrace/internal/predictor"
	"pathtrace/internal/serve"
	"pathtrace/internal/stream"
	"pathtrace/internal/trace"
	"pathtrace/internal/workload"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr       = flag.String("addr", "127.0.0.1:9191", "serve: listen address; loadgen: server address")
		admin      = flag.String("admin", "", "admin HTTP listen address (empty = disabled)")
		shards     = flag.Int("shards", 0, "predictor shards (default GOMAXPROCS)")
		queue      = flag.Int("queue", 1024, "per-shard bound on requests waiting for the shard; one more is answered overloaded")
		portfile   = flag.String("portfile", "", "write the bound data-plane port to this file once listening")
		adminPF    = flag.String("adminportfile", "", "write the bound admin port to this file once listening")
		ckptDir    = flag.String("checkpoint-dir", "", "persist session snapshots here and warm-restart from them")
		ckptEach   = flag.Duration("checkpoint-every", 2*time.Second, "periodic checkpoint sweep interval")
		limitsFile = flag.String("limits-file", "", "JSON admission limits (per_client_rate, per_client_burst, global_rate, global_burst; unset = unlimited), reloaded on SIGHUP")

		depth     = flag.Int("depth", 7, "predictor path-history depth")
		indexBits = flag.Int("indexbits", 16, "correlated table index bits")
		noRHS     = flag.Bool("norhs", false, "disable the Return History Stack")
		backendF  = flag.String("backend", "", "serving predictor backend (default hybrid; an unknown name lists the registry)")
		shadow    = flag.String("shadow", "", "comma-separated shadow backends to evaluate on live traffic (serve mode)")
		inject    = flag.String("inject", "", "fault-injection spec for per-session injectors, e.g. table:1e-4")
		seed      = flag.Uint64("seed", 0, "fault-injection PRNG seed")

		loadgen    = flag.Bool("loadgen", false, "run the load generator instead of serving")
		streamPath = flag.String("stream", "", "loadgen: .ntps stream file to replay")
		wl         = flag.String("workload", "", "loadgen: capture this workload in process instead of -stream")
		length     = flag.Uint64("len", 2_000_000, "loadgen: instructions to capture with -workload")
		conns      = flag.Int("conns", 1, "loadgen: TCP connections")
		sessions   = flag.Int("sessions", 0, "loadgen: sessions (default = conns)")
		batch      = flag.Int("batch", 256, "loadgen: traces per update request")
		verify     = flag.Bool("verify", false, "loadgen: require server stats bit-identical to an in-process replay")
		sessBase   = flag.Uint64("sessionbase", 1, "loadgen: first session id (pick fresh ids when reusing a server)")
		failover   = flag.Bool("failover", false, "loadgen: snapshot-per-ack session recovery, which rides out server restarts")
		clientTag  = flag.String("client", "", "loadgen: client tag announced to the server (admission-control identity)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "ntpd: unexpected arguments: %v\n", flag.Args())
		return 2
	}

	pcfg := predictor.Config{Depth: *depth, IndexBits: *indexBits, Hybrid: true, UseRHS: !*noRHS, Backend: *backendF}
	var fcfg *faults.Config
	if *inject != "" || *seed != 0 {
		c, err := faults.ParseSpec(*inject)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ntpd: %v\n", err)
			return 2
		}
		c.Seed = *seed
		fcfg = &c
	}

	if *loadgen {
		if *shadow != "" {
			fmt.Fprintln(os.Stderr, "ntpd: -shadow is a serve-mode flag")
			return 2
		}
		return runLoadgen(loadgenArgs{
			addr: *addr, streamPath: *streamPath, workload: *wl, length: *length,
			conns: *conns, sessions: *sessions, batch: *batch, verify: *verify,
			sessBase: *sessBase, pcfg: pcfg, fcfg: fcfg,
			failover: *failover, clientTag: *clientTag,
		})
	}
	if *clientTag != "" {
		fmt.Fprintln(os.Stderr, "ntpd: -client is a loadgen-mode flag")
		return 2
	}
	var limits serve.Limits
	if *limitsFile != "" {
		l, err := loadLimits(*limitsFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ntpd: %v\n", err)
			return 2
		}
		limits = l
	}
	var shadows []string
	if *shadow != "" {
		for _, name := range strings.Split(*shadow, ",") {
			if name = strings.TrimSpace(name); name != "" {
				shadows = append(shadows, name)
			}
		}
	}
	return runServe(serve.Config{
		Addr: *addr, AdminAddr: *admin, Shards: *shards, QueueLen: *queue,
		Predictor: pcfg, Faults: fcfg, Shadows: shadows,
		CheckpointDir: *ckptDir, CheckpointEvery: *ckptEach,
		Limits: limits,
	}, *portfile, *adminPF, *limitsFile)
}

// loadLimits reads admission limits from a JSON file, decoded and
// checked exactly as a POST /limitz body is.
func loadLimits(path string) (serve.Limits, error) {
	f, err := os.Open(path)
	if err != nil {
		return serve.Limits{}, err
	}
	defer f.Close()
	l, err := serve.DecodeLimits(f)
	if err != nil {
		return serve.Limits{}, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// drainDeadline bounds the graceful drain on SIGINT/SIGTERM.
const drainDeadline = 10 * time.Second

func runServe(scfg serve.Config, portfile, adminPF string, limitsFile string) int {
	srv, err := serve.NewServer(scfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ntpd: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "ntpd: listening on %s", srv.Addr())
	if a := srv.AdminAddr(); a != nil {
		fmt.Fprintf(os.Stderr, " (admin %s)", a)
	}
	fmt.Fprintln(os.Stderr)
	writePort := func(path string, a net.Addr) bool {
		if path == "" {
			return true
		}
		if a == nil {
			fmt.Fprintf(os.Stderr, "ntpd: -adminportfile needs -admin\n")
			return false
		}
		port := a.(*net.TCPAddr).Port
		if err := os.WriteFile(path, []byte(fmt.Sprintf("%d\n", port)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "ntpd: portfile %s: %v\n", path, err)
			return false
		}
		return true
	}
	if !writePort(portfile, srv.Addr()) || !writePort(adminPF, srv.AdminAddr()) {
		srv.Close()
		return 1
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	var got os.Signal
	for got = range sig {
		if got != syscall.SIGHUP {
			break
		}
		// SIGHUP: hot-reload admission limits without dropping sessions.
		if limitsFile == "" {
			fmt.Fprintln(os.Stderr, "ntpd: SIGHUP: no -limits-file, limits unchanged")
			continue
		}
		l, err := loadLimits(limitsFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ntpd: SIGHUP: %v (limits unchanged)\n", err)
			continue
		}
		srv.SetLimits(l)
		fmt.Fprintf(os.Stderr, "ntpd: SIGHUP: limits reloaded from %s: %+v\n", limitsFile, srv.Limits())
	}
	fmt.Fprintf(os.Stderr, "ntpd: %v: draining (deadline %s)\n", got, drainDeadline)
	ctx, cancel := context.WithTimeout(context.Background(), drainDeadline)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "ntpd: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "ntpd: drained, bye")
	return 0
}

type loadgenArgs struct {
	addr, streamPath, workload string
	length                     uint64
	conns, sessions, batch     int
	sessBase                   uint64
	verify                     bool
	failover                   bool
	clientTag                  string
	pcfg                       predictor.Config
	fcfg                       *faults.Config
}

func runLoadgen(a loadgenArgs) int {
	var s *stream.Stream
	switch {
	case a.streamPath != "" && a.workload != "":
		fmt.Fprintln(os.Stderr, "ntpd: -stream and -workload are mutually exclusive")
		return 2
	case a.streamPath != "":
		var err error
		s, err = stream.Load(a.streamPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ntpd: %v\n", err)
			return 1
		}
	case a.workload != "":
		w, ok := workload.ByName(a.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "ntpd: unknown workload %q\n", a.workload)
			return 2
		}
		fmt.Fprintf(os.Stderr, "ntpd: capturing %s for %d instructions...\n", a.workload, a.length)
		var err error
		s, err = stream.Capture(nil, w, a.length, trace.DefaultConfig())
		if err != nil {
			fmt.Fprintf(os.Stderr, "ntpd: %v\n", err)
			return 1
		}
	default:
		fmt.Fprintln(os.Stderr, "ntpd: -loadgen needs -stream <file> or -workload <name>")
		return 2
	}
	fmt.Fprintf(os.Stderr, "ntpd: replaying %d traces (%s) against %s\n", s.Len(), s.Key(), a.addr)

	lcfg := serve.LoadgenConfig{
		Addr: a.addr, Stream: s,
		Conns: a.conns, Sessions: a.sessions, Batch: a.batch,
		Verify: a.verify, Predictor: a.pcfg, Faults: a.fcfg,
		SessionBase: a.sessBase, ClientTag: a.clientTag,
		Failover: a.failover,
	}
	rep, err := serve.RunLoadgen(context.Background(), lcfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ntpd: loadgen: %v\n", err)
		return 1
	}
	fmt.Println(rep)
	return 0
}
