package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vbi/internal/harness"
	"vbi/internal/obs"
)

// Coordinator executes job batches by sharding them across remote Worker
// endpoints. It implements harness.Executor, so every sweep front-end
// that takes an executor can run distributed unchanged.
//
// The fleet can be static, dynamic, or both. Endpoints lists workers
// known up front (the -remote flag); Run seeds them into the registry
// through Registry.AddRemote, the one -remote path the sweep daemon also
// takes, after the cache pre-pass, so a fully cached batch contacts no
// worker. Fleet, when non-nil, is a membership registry whose
// /register endpoint the coordinator's front-end serves (-fleet): workers
// join and leave while the sweep runs, a joiner immediately starts
// pulling queued shards, and a worker that dies — detected by request
// failure or missed heartbeats — has its in-flight shards requeued for
// the survivors.
//
// Each Run submits its batch to a Scheduler (the one the sweep daemon
// also runs): the batch is cut into fixed-size shards of job indices, and
// each live member repeatedly pulls up to its advertised worker count of
// shards per request, so faster and wider workers naturally take more of
// the batch. A member that fails Retries consecutive times is dropped
// (and, for dynamic members, quarantined in the registry). Results merge
// positionally and completed shards stream into Cache as they arrive, so
// the output is byte-identical to a serial local run regardless of
// membership history, and an aborted sweep resumes incrementally.
//
// The fields also configure a Scheduler built with NewScheduler.
type Coordinator struct {
	// Endpoints lists workers as "host:port" (or full base URLs), known up
	// front. With no Endpoints and no Fleet, the batch runs on Local (or a
	// default runner).
	Endpoints []string
	// Fleet, when non-nil, supplies dynamically joining workers. The
	// front-end mounts Fleet.Handler() on a listener; the coordinator only
	// reads membership. A sweep with a dynamic fleet and no live workers
	// waits for a join instead of failing.
	Fleet *Registry
	// AuthToken, when non-empty, is sent (bearer) on every worker request.
	// It must match the workers' configured token.
	AuthToken string
	// Cache, when non-nil, serves jobs before any network traffic and
	// stores every remote result, giving distributed sweeps the same
	// incremental re-run behavior as local ones.
	Cache *harness.Cache
	// Local runs the batch when no endpoints or fleet are configured.
	Local *harness.Runner
	// ShardSize is the number of jobs per shard, the requeue granularity
	// (<=0 = 4).
	ShardSize int
	// Timeout bounds one /run request (<=0 = 10m). It must cover a full
	// shard's simulation time, not one job's.
	Timeout time.Duration
	// Retries is how many consecutive failures drop an endpoint (<=0 =
	// default 2; 1 = drop on the first failure).
	Retries int
	// PollInterval is the membership-churn poll cadence: how often the
	// scheduler looks for joined, evicted or failed members (<=0 = 250ms).
	PollInterval time.Duration
	// Progress, when non-nil, receives shard-level progress lines.
	Progress io.Writer
	// Logger, when non-nil, receives structured shard-lifecycle records
	// (dispatch, completion, failure). Each Scheduler (one per Run) mints
	// a root trace ID and numbers its shards ("<root>/<seq>"); the chain
	// is sent to workers in the obs.TraceHeader header and attached to
	// every record here, so one grep follows a shard through both
	// processes' logs.
	Logger *slog.Logger
	// Client, when non-nil, overrides the HTTP client (tests).
	Client *http.Client

	mu sync.Mutex // guards Progress
}

func (c *Coordinator) log() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return obs.Discard
}

var _ harness.Executor = (*Coordinator)(nil)

func (c *Coordinator) logf(format string, args ...any) {
	if c.Progress == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Fprintf(c.Progress, format+"\n", args...)
}

func (c *Coordinator) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return http.DefaultClient
}

func (c *Coordinator) shardSize() int {
	if c.ShardSize <= 0 {
		return 4
	}
	return c.ShardSize
}

func (c *Coordinator) timeout() time.Duration {
	if c.Timeout <= 0 {
		return 10 * time.Minute
	}
	return c.Timeout
}

func (c *Coordinator) retries() int {
	if c.Retries <= 0 {
		return 2
	}
	return c.Retries
}

func (c *Coordinator) pollInterval() time.Duration {
	if c.PollInterval <= 0 {
		return 250 * time.Millisecond
	}
	return c.PollInterval
}

// SplitEndpoints parses a comma-separated -remote flag value into an
// endpoint list, dropping empty entries. FleetOptions and vbisweepd use
// it so -remote parsing cannot diverge between front-ends.
func SplitEndpoints(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// FleetOptions is the -remote/-fleet/-auth-token configuration of the
// one-shot coordinator front-ends (vbisweep, vbibench): one place that
// declares the flags and turns them into a Coordinator.
type FleetOptions struct {
	// Remote is the comma-separated static endpoint list.
	Remote string
	// Listen is the dynamic-fleet registration address.
	Listen string
	// AuthToken is the shared fleet token; empty falls back to
	// $VBI_AUTH_TOKEN (ResolveToken).
	AuthToken string
}

// Flags registers -remote, -fleet and -auth-token on fs.
func (o *FleetOptions) Flags(fs *flag.FlagSet) {
	fs.StringVar(&o.Remote, "remote", "", "comma-separated vbiworker endpoints host:port; shards every batch across them (empty = local pool)")
	fs.StringVar(&o.Listen, "fleet", "", "listen address for dynamic worker registration (vbiworker -join); may combine with -remote")
	fs.StringVar(&o.AuthToken, "auth-token", "", "shared fleet token for -remote/-fleet (default $"+AuthEnv+")")
}

// Coordinator builds the executor these options configure around local,
// the runner whose Cache and Progress it shares and which runs every
// batch when neither -remote nor -fleet is given. With -fleet it also
// serves the registration listener (TLS per tlsOpts, log lines prefixed
// with prog on stderr); call the returned close when the run ends.
func (o *FleetOptions) Coordinator(prog string, tlsOpts *TLSOptions, local *harness.Runner, logger *slog.Logger) (*Coordinator, func() error, error) {
	c := &Coordinator{AuthToken: ResolveToken(o.AuthToken), Cache: local.Cache, Local: local,
		Progress: local.Progress, Logger: logger}
	noListener := func() error { return nil }
	if o.Remote == "" && o.Listen == "" {
		return c, noListener, nil
	}
	client, err := tlsOpts.Client()
	if err != nil {
		return nil, nil, err
	}
	c.Client = client
	c.Endpoints = ApplyScheme(SplitEndpoints(o.Remote), tlsOpts.Scheme())
	if o.Listen == "" {
		return c, noListener, nil
	}
	tlsCfg, err := tlsOpts.ServerConfig()
	if err != nil {
		return nil, nil, err
	}
	if c.AuthToken == "" && tlsCfg == nil && NonLoopbackBind(o.Listen) {
		fmt.Fprintf(os.Stderr, "%s: warning: fleet listener %s is reachable beyond loopback with no -auth-token or TLS; any host can serve shards\n", prog, o.Listen)
	}
	c.Fleet = &Registry{AuthToken: c.AuthToken, Log: os.Stderr}
	srv, bound, err := Serve(o.Listen, c.Fleet.Handler(), tlsCfg)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet listener: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s: fleet listening on %s (workers join with vbiworker -join)\n", prog, bound)
	return c, srv.Close, nil
}

// baseURL normalizes a configured endpoint to a scheme-qualified base.
func baseURL(ep string) string {
	if strings.Contains(ep, "://") {
		return strings.TrimSuffix(ep, "/")
	}
	return "http://" + ep
}

// Run implements harness.Executor. With no endpoints and no fleet it
// delegates to the local runner; otherwise it validates, serves what it
// can from Cache, seeds the registry with Endpoints (Registry.AddRemote),
// and dispatches the remaining jobs as one batch across the (possibly
// churning) membership. A stale endpoint, a shard refused by the fleet
// maxShardAttempts times, a static-only fleet fully dead or a cancelled
// context aborts the batch; already-completed shards remain in Cache.
func (c *Coordinator) Run(ctx context.Context, jobs []harness.Job) ([]harness.Result, error) {
	if len(c.Endpoints) == 0 && c.Fleet == nil {
		r := c.Local
		if r == nil {
			r = &harness.Runner{Cache: c.Cache, Progress: c.Progress}
		}
		return r.Run(ctx, jobs)
	}
	// Fail fast before any network traffic, exactly like the local pool.
	for i, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("job %d (%s): %w", i, j.Describe(), err)
		}
	}
	if len(jobs) == 0 {
		return nil, nil
	}

	// Cache pre-pass: only misses travel. A fully warmed sweep never
	// contacts a worker at all.
	results := make([]harness.Result, len(jobs))
	var miss []int
	for i, j := range jobs {
		if c.Cache != nil {
			if res, ok := c.Cache.Get(j); ok {
				c.logf("  [cache] %s", j.Describe())
				results[i] = harness.Result{Job: j, Results: res, Cached: true}
				continue
			}
		}
		miss = append(miss, i)
	}
	if len(miss) == 0 {
		return results, nil
	}

	reg := c.Fleet
	if reg == nil {
		// Without a fleet listener the -remote list is the whole fleet:
		// nothing joins, and running dry is fatal. The registry narrates
		// seeding on Progress; it writes nothing once the scheduler
		// starts, because static members are never evicted.
		reg = &Registry{Log: c.Progress}
	}
	skipped, err := reg.AddRemote(ctx, c.client(), c.AuthToken, c.Endpoints)
	if err != nil {
		return nil, err
	}
	if len(reg.Live()) == 0 && !reg.Dynamic() {
		return nil, fmt.Errorf("dist: no live workers among %s (skipped %s)",
			strings.Join(c.Endpoints, ","), strings.Join(skipped, "; "))
	}

	s := c.NewScheduler(reg)
	nshards := (len(miss) + c.shardSize() - 1) / c.shardSize()
	c.logf("dist: %d jobs in %d shards across %d workers", len(miss), nshards, len(reg.Live()))
	c.log().Info("batch start", "trace", s.trace, "jobs", len(miss), "shards", nshards, "workers", len(reg.Live()))

	finished := make(chan error, 1)
	finish := func(err error) {
		select {
		case finished <- err:
		default:
		}
	}
	var left atomic.Int64
	left.Store(int64(len(miss)))
	s.Submit(jobs, miss, func(idx int, jr JobResult) {
		// Timing rides beside the results into the merged matrix; the
		// cache stores only jr.Results, so cached bytes stay identical
		// to a serial local run.
		results[idx] = harness.Result{Job: jobs[idx], Results: jr.Results, Cached: jr.Cached, Timing: jr.Timing}
		if c.Cache != nil {
			if err := c.Cache.Put(jobs[idx], jr.Results); err != nil {
				finish(fmt.Errorf("cache put: %w", err))
				return
			}
		}
		if left.Add(-1) == 0 {
			finish(nil)
		}
	}, finish)

	runCtx, cancel := context.WithCancel(ctx)
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		s.Run(runCtx)
	}()
	// Joining the scheduler joins every serve loop, so no result sink
	// runs after Run returns.
	defer func() {
		cancel()
		<-stopped
	}()

	select {
	case err := <-finished:
		if err != nil {
			return nil, err
		}
		return results, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Probe fetches one endpoint's handshake (PathHealthz), the client half
// of the /healthz contract. Registry.AddRemote probes every -remote
// endpoint through it.
func Probe(ctx context.Context, client *http.Client, base, token string) (Hello, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL(base)+PathHealthz, nil)
	if err != nil {
		return Hello{}, err
	}
	setAuth(req, token)
	resp, err := client.Do(req)
	if err != nil {
		return Hello{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Hello{}, fmt.Errorf("healthz: %s", resp.Status)
	}
	var h Hello
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return Hello{}, fmt.Errorf("healthz: %w", err)
	}
	return h, nil
}

// ExecuteShard sends one job batch to one member over the wire protocol
// and returns its positional results. The second return is a fatal error
// (version mismatch: this worker can never serve this process), the
// third a retryable one (requeue the shard for the rest of the fleet).
// The Scheduler's serve loops dispatch every shard through it.
// A non-empty trace is sent as the obs.TraceHeader header; the worker
// attaches it to its shard log records, joining the two processes' logs.
func ExecuteShard(ctx context.Context, client *http.Client, m Member, token string,
	timeout time.Duration, batch []harness.Job, trace string) (RunResponse, error, error) {
	body, err := json.Marshal(RunRequest{Version: ProtocolVersion, Jobs: batch})
	if err != nil {
		return RunResponse{}, nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.Base+PathRun, bytes.NewReader(body))
	if err != nil {
		return RunResponse{}, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	setAuth(req, token)
	resp, err := client.Do(req)
	if err != nil {
		return RunResponse{}, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		if eb.Error == "" {
			eb.Error = resp.Status
		}
		if resp.StatusCode == http.StatusPreconditionFailed {
			return RunResponse{}, fmt.Errorf("dist: worker %s: %s", m.ID, eb.Error), nil
		}
		return RunResponse{}, nil, fmt.Errorf("run: %s: %s", resp.Status, eb.Error)
	}
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return RunResponse{}, nil, fmt.Errorf("run: decode: %w", err)
	}
	if len(rr.Results) != len(batch) {
		return RunResponse{}, nil, fmt.Errorf("run: %d results for %d jobs", len(rr.Results), len(batch))
	}
	return rr, nil, nil
}

// sleepCtx sleeps d or returns early with ctx's error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
