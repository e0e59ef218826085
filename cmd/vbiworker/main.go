// Command vbiworker serves harness job batches to a remote coordinator
// (vbisweep -remote / -fleet, vbibench -remote / -fleet). It
// wraps the ordinary local worker pool in the internal/dist HTTP
// protocol: POST /run takes a batch of canonical job specs and returns
// positional results; GET /healthz advertises the binary's harness
// version and pool width (the coordinator's shard-planning weight). A
// worker whose version differs from the coordinator's refuses every
// shard, so a stale binary can never contribute results from a different
// timing model.
//
// With -join the worker also registers itself against a coordinator's
// fleet listener and heartbeats there, so it can join a sweep already in
// flight and rejoin after a restart; without -join it only serves the
// static -remote path. -auth-token (or $VBI_AUTH_TOKEN) gates the
// worker's own endpoints and authenticates its registrations; the
// -tls-cert/-tls-key/-tls-ca flags serve the endpoints over TLS (mTLS
// when -tls-ca is given) and secure the -join heartbeats.
//
// Shutdown is a graceful drain: the first SIGTERM/SIGINT flips the worker
// to draining (the handshake advertises it, new shards get 503 and are
// requeued elsewhere), deregisters it from the -join fleet immediately
// (no TTL wait), and then waits for in-flight shards to finish and
// report. A second signal force-quits, abandoning in-flight work to the
// coordinator's requeue.
//
// Usage:
//
//	vbiworker -addr :9471
//	vbiworker -addr 10.0.0.7:9471 -workers 16 -cache /var/tmp/vbicache -v
//	vbiworker -addr :9471 -join 10.0.0.1:9600 -auth-token secret
//	vbiworker -addr :9471 -join 10.0.0.1:9600 -tls-cert w.pem -tls-key w.key -tls-ca fleet-ca.pem
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vbi/internal/dist"
	"vbi/internal/harness"
	"vbi/internal/obs"
)

func main() {
	tlsOpts := &dist.TLSOptions{}
	logOpts := &obs.LogOptions{}
	var (
		addr      = flag.String("addr", ":9471", "listen address")
		workers   = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cacheDir  = flag.String("cache", "", "result-cache directory (empty = no cache)")
		join      = flag.String("join", "", "coordinator fleet address (vbisweep -fleet / vbibench -fleet) to register with and heartbeat")
		advertise = flag.String("advertise", "", "address advertised on -join for shard requests (default -addr; an empty host is filled in by the coordinator)")
		authToken = flag.String("auth-token", "", "shared fleet token gating this worker's endpoints and sent on -join (default $"+dist.AuthEnv+")")
		drainWait = flag.Duration("drain-timeout", 15*time.Minute, "how long a drain waits for in-flight shards before force-quitting")
		verbose   = flag.Bool("v", false, "also log every individual run (shard activity is always logged)")
		pprof     = flag.Bool("pprof", false, "serve /debug/pprof/ on the worker's (auth-gated) listener for live profiling")
		version   = flag.Bool("version", false, "print protocol and harness versions, then exit")
	)
	tlsOpts.Flags(flag.CommandLine)
	logOpts.Flags(flag.CommandLine)
	flag.Parse()
	if *version {
		fmt.Println(dist.VersionLine("vbiworker"))
		return
	}
	logger, err := logOpts.New(os.Stderr)
	if err != nil {
		fatal(err)
	}
	token := dist.ResolveToken(*authToken)

	tlsCfg, err := tlsOpts.ServerConfig()
	if err != nil {
		fatal(err)
	}
	if token == "" && tlsCfg == nil && dist.NonLoopbackBind(*addr) {
		fmt.Fprintf(os.Stderr, "vbiworker: warning: %s is reachable beyond loopback with no -auth-token or TLS; any host can submit shards\n", *addr)
	}

	runner := &harness.Runner{Workers: *workers}
	if *cacheDir != "" {
		runner.Cache = &harness.Cache{Dir: *cacheDir}
	}
	w := &dist.Worker{Runner: runner, AuthToken: token, Logger: logger, Pprof: *pprof}
	if *verbose {
		runner.Progress = os.Stderr
	}

	srv := &http.Server{Addr: *addr, Handler: w.Handler(), TLSConfig: tlsCfg}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var joiner *dist.Joiner
	if *join != "" {
		adv := *advertise
		if adv == "" {
			adv = *addr
		}
		joiner = &dist.Joiner{
			Coordinator: dist.ApplyScheme([]string{*join}, tlsOpts.Scheme())[0],
			// A TLS worker must be dialed back over https; bake the scheme
			// into the advertised address.
			Advertise: dist.ApplyScheme([]string{adv}, tlsOpts.Scheme())[0],
			Workers:   w.PoolWidth(),
			AuthToken: token,
			Log:       os.Stderr,
		}
		if httpc, err := tlsOpts.Client(); err != nil {
			fatal(err)
		} else {
			joiner.Client = httpc
		}
		go func() {
			if err := joiner.Run(ctx); err != nil {
				// A 401/412 rejection is operator error; surface it and die
				// instead of serving a fleet that will never use us.
				fmt.Fprintln(os.Stderr, "vbiworker:", err)
				srv.Close()
				os.Exit(1)
			}
		}()
	}

	// Graceful drain: first signal stops new work (503 + Draining in the
	// handshake), leaves the fleet, and waits out in-flight shards so
	// their results are reported (and cached) rather than re-simulated; a
	// second signal — or the drain timeout — abandons them to the
	// coordinator's requeue.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		w.SetDraining(true)
		fmt.Fprintln(os.Stderr, "vbiworker: draining: refusing new shards, finishing in-flight ones (signal again to force quit)")
		if joiner != nil {
			joiner.Leave(context.Background())
		}
		cancel() // stop the heartbeat loop
		done := make(chan struct{})
		go func() {
			sctx, scancel := context.WithTimeout(context.Background(), *drainWait)
			defer scancel()
			srv.Shutdown(sctx)
			close(done)
		}()
		select {
		case <-sigc:
			fmt.Fprintln(os.Stderr, "vbiworker: force quit; in-flight shards abandoned to the coordinator's requeue")
		case <-done:
			fmt.Fprintln(os.Stderr, "vbiworker: drain complete")
		}
		srv.Close()
	}()

	scheme := "http"
	if tlsCfg != nil {
		scheme = "https"
	}
	// Print both resolved versions: the wire protocol the coordinator
	// checks at handshake and the harness schema local cache entries are
	// keyed under.
	fmt.Fprintf(os.Stderr, "vbiworker: protocol %s, harness cache %s, listening on %s://%s\n",
		dist.ProtocolVersion, harness.Version, scheme, *addr)
	var serveErr error
	if tlsCfg != nil {
		// Certificates come from TLSConfig; the file arguments are unused.
		serveErr = srv.ListenAndServeTLS("", "")
	} else {
		serveErr = srv.ListenAndServe()
	}
	if serveErr != nil && serveErr != http.ErrServerClosed {
		fatal(serveErr)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vbiworker:", err)
	os.Exit(1)
}
