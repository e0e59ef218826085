// Command vbiworker serves harness job batches to a remote coordinator
// (vbisweep -remote, vbibench -remote). It wraps the ordinary local worker pool in the internal/dist HTTP
// protocol: POST /run takes a batch of canonical job specs and returns
// positional results; GET /healthz advertises the binary's harness
// version and pool width (the coordinator's shard-planning weight). A
// worker whose version differs from the coordinator's refuses every
// shard, so a stale binary can never contribute results from a different
// timing model.
//
// A coordinator's fleet is its -remote list, probed when a sweep starts,
// so a worker serves the sweeps whose lists name it; it never contacts a
// coordinator itself. -auth-token (or $VBI_AUTH_TOKEN) gates the worker's
// endpoints; the -tls-cert/-tls-key/-tls-ca flags serve them over TLS
// (mTLS when -tls-ca is given).
//
// Shutdown is a graceful drain: the first SIGTERM/SIGINT flips the worker
// to draining (the handshake advertises it, new shards get 503 and are
// requeued elsewhere) and then waits for in-flight shards to finish and
// report. A second signal force-quits, abandoning in-flight work to the
// coordinator's requeue.
//
// Usage:
//
//	vbiworker -addr :9471
//	vbiworker -addr 10.0.0.7:9471 -workers 16 -cache /var/tmp/vbicache -v
//	vbiworker -addr :9471 -auth-token secret
//	vbiworker -addr :9471 -tls-cert w.pem -tls-key w.key -tls-ca fleet-ca.pem
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
		authToken = flag.String("auth-token", "", "shared fleet token gating this worker's endpoints (default $"+dist.AuthEnv+")")
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

	// Graceful drain: first signal stops new work (503 + Draining in the
	// handshake) and waits out in-flight shards so their results are
	// reported (and cached) rather than re-simulated; a second signal — or
	// the drain timeout — abandons them to the coordinator's requeue.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		w.SetDraining(true)
		fmt.Fprintln(os.Stderr, "vbiworker: draining: refusing new shards, finishing in-flight ones (signal again to force quit)")
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
