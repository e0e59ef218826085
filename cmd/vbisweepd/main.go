// Command vbisweepd is the long-running sweep service: a daemon that
// accepts many sweeps over a JSON HTTP API, journals them durably,
// schedules their shards fairly across one dynamic vbiworker fleet, and
// exposes the whole plane's health on /status and /metrics.
//
// Where `vbisweep -fleet` lives for exactly one sweep, vbisweepd owns a
// persistent queue: every POST /sweeps is journaled (as its canonical
// self-describing job list) before the submit returns, so a daemon killed
// mid-sweep reloads its queue on restart and resumes from the shared
// result cache. Scheduling round-robins one shard per active sweep per
// pull, so a small sweep submitted behind a huge one starts completing
// immediately. An empty fleet queues work instead of failing it.
//
// API (all routes share -auth-token and the TLS flags):
//
//	POST   /sweeps       submit {"version", "name", "grid", "metric"}
//	GET    /sweeps       list every sweep's progress
//	GET    /sweeps/{id}  one sweep's progress + result table when done
//	DELETE /sweeps/{id}  cancel an active sweep / forget a terminal one
//	GET    /status       fleet membership + per-sweep progress (JSON)
//	GET    /metrics      Prometheus text exposition
//	POST   /register     vbiworker -join heartbeats
//	POST   /leave        vbiworker graceful-drain deregistration
//
// Workers join with `vbiworker -join <addr>` (dynamic, heartbeating) or
// are listed statically with -remote. The -remote list seeds the fleet
// exactly as vbisweep's does (dist.Registry.AddRemote): at startup a
// worker running a different protocol version stops the daemon, and an
// unreachable or draining one is skipped with a log line. Clients use
// `vbisweep -daemon` with -submit/-watch/-cancel, or plain curl.
//
// Usage:
//
//	vbisweepd -addr 127.0.0.1:9600 -journal /var/lib/vbisweepd -cache /var/tmp/vbicache
//	vbisweepd -addr :9600 -auth-token secret -journal ./sweepd -cache ./vbicache
//	vbisweepd -addr :9600 -tls-cert d.pem -tls-key d.key -tls-ca fleet-ca.pem ...
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vbi/internal/dist"
	"vbi/internal/harness"
	"vbi/internal/obs"
	"vbi/internal/sweepd"
)

func main() {
	tlsOpts := &dist.TLSOptions{}
	logOpts := &obs.LogOptions{}
	var (
		addr      = flag.String("addr", "127.0.0.1:9600", "listen address for the API and the fleet routes")
		journal   = flag.String("journal", ".vbisweepd", "journal directory: one record per sweep, replayed on restart")
		cacheDir  = flag.String("cache", "", "shared result-cache directory (strongly recommended: it is what makes restarts incremental)")
		remote    = flag.String("remote", "", "comma-separated static vbiworker endpoints host:port, probed once at startup: a stale one stops the daemon, an unreachable or draining one is skipped (dynamic workers use vbiworker -join instead)")
		authToken = flag.String("auth-token", "", "shared token gating every route and sent to workers (default $"+dist.AuthEnv+")")
		shard     = flag.Int("shard", 4, "jobs per dispatched shard")
		timeout   = flag.Duration("timeout", 10*time.Minute, "per-shard worker request timeout")
		version   = flag.Bool("version", false, "print protocol and harness versions, then exit")
	)
	tlsOpts.Flags(flag.CommandLine)
	logOpts.Flags(flag.CommandLine)
	flag.Parse()
	if *version {
		fmt.Println(dist.VersionLine("vbisweepd"))
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
	client, err := tlsOpts.Client()
	if err != nil {
		fatal(err)
	}
	if token == "" && tlsCfg == nil && dist.NonLoopbackBind(*addr) {
		fmt.Fprintf(os.Stderr, "vbisweepd: warning: %s is reachable beyond loopback with no -auth-token or TLS; any host can submit sweeps or serve shards\n", *addr)
	}

	srv := &sweepd.Server{
		Dir:       *journal,
		Fleet:     &dist.Registry{Log: os.Stderr},
		AuthToken: token,
		ShardSize: *shard,
		Timeout:   *timeout,
		Client:    client,
		Logger:    logger,
	}
	if *cacheDir != "" {
		srv.Cache = &harness.Cache{Dir: *cacheDir}
	} else {
		fmt.Fprintln(os.Stderr, "vbisweepd: warning: no -cache; a restart will re-simulate every incomplete sweep from scratch")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Static workers are seeded before the journal replays, under the
	// one-shot coordinator's policy: a stale one stops the daemon here.
	remotes := dist.ApplyScheme(dist.SplitEndpoints(*remote), tlsOpts.Scheme())
	if err := srv.Fleet.AddRemote(ctx, client, token, remotes); err != nil {
		fatal(err)
	}
	if err := srv.Start(ctx); err != nil {
		fatal(err)
	}

	httpSrv, bound, err := dist.Serve(*addr, srv.Handler(), tlsCfg)
	if err != nil {
		fatal(err)
	}
	scheme := "http"
	if tlsCfg != nil {
		scheme = "https"
	}
	// Print both resolved versions: the wire protocol the fleet must match
	// and the harness schema the cache and journal are keyed under. They
	// are the first things to compare when a fleet refuses to mix.
	fmt.Fprintf(os.Stderr, "vbisweepd: protocol %s, harness cache %s, serving on %s://%s (journal %s)\n",
		dist.ProtocolVersion, harness.Version, scheme, bound, *journal)

	<-ctx.Done()
	stop()
	// In-flight shards are abandoned (workers finish them into the shared
	// cache; the journal resumes the sweeps on the next start), so
	// shutdown never blocks on a long simulation.
	httpSrv.Close()
	fmt.Fprintln(os.Stderr, "vbisweepd: shut down (journal retained; restart resumes pending sweeps)")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vbisweepd:", err)
	os.Exit(1)
}
