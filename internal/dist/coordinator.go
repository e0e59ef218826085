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
	"strings"
	"sync"
	"time"

	"vbi/internal/harness"
	"vbi/internal/obs"
)

// Coordinator executes job batches by sharding them across remote Worker
// endpoints. It implements harness.Executor, so every sweep front-end
// that takes an executor can run distributed unchanged.
//
// The fleet is the Endpoints list (the -remote flag): after the cache
// pre-pass, so that a fully cached batch contacts no worker, Run probes
// it with AddRemote, and the endpoints that pass the handshake are the
// run's members. Nothing joins during a run. A worker that dies has its
// in-flight shards requeued for the survivors, and a host that comes up
// later serves the next run, which re-runs the same grid from Cache.
//
// Each Run dispatches its batch through one scheduler: the batch is cut
// into fixed-size shards of job indices, and each member repeatedly
// pulls up to its advertised worker count of shards per request, so
// faster and wider workers naturally take more of the batch. A member
// that fails Retries consecutive times is dropped. Results merge
// positionally and completed shards stream into Cache as they arrive, so
// the output is byte-identical to a serial local run whichever workers
// served it, and an aborted sweep resumes incrementally: re-running it
// serves every finished job from the cache.
type Coordinator struct {
	// Endpoints lists the workers as "host:port" (or full base URLs).
	// With no Endpoints, the batch runs on Local (or a default runner).
	Endpoints []string
	// AuthToken, when non-empty, is sent (bearer) on every worker request.
	// It must match the workers' configured token.
	AuthToken string
	// Cache, when non-nil, serves jobs before any network traffic and
	// stores every remote result, giving distributed sweeps the same
	// incremental re-run behavior as local ones.
	Cache *harness.Cache
	// Local runs the batch when no endpoints are configured.
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
	// Progress, when non-nil, receives shard-level progress lines.
	Progress io.Writer
	// Logger, when non-nil, receives structured shard-lifecycle records
	// (dispatch, completion, failure). Each Run mints a root trace ID and
	// numbers its shards ("<root>/<seq>"); the chain is sent to workers
	// in the obs.TraceHeader header and attached to every record here,
	// so one grep follows a shard through both processes' logs.
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

// SplitEndpoints parses a comma-separated -remote flag value into an
// endpoint list, dropping empty entries.
func SplitEndpoints(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// FleetOptions is the -remote/-auth-token configuration of the one-shot
// coordinator front-ends (vbisweep, vbibench): one place that declares
// the flags and turns them into a Coordinator.
type FleetOptions struct {
	// Remote is the comma-separated endpoint list.
	Remote string
	// AuthToken is the shared fleet token; empty falls back to
	// $VBI_AUTH_TOKEN (ResolveToken).
	AuthToken string
}

// Flags registers -remote and -auth-token on fs.
func (o *FleetOptions) Flags(fs *flag.FlagSet) {
	fs.StringVar(&o.Remote, "remote", "", "comma-separated vbiworker endpoints host:port; shards every batch across them (empty = local pool)")
	fs.StringVar(&o.AuthToken, "auth-token", "", "shared fleet token for -remote (default $"+AuthEnv+")")
}

// Coordinator builds the executor these options configure around local,
// the runner whose Cache and Progress it shares and which runs every
// batch when -remote is not given. Its client dials the endpoints per
// tlsOpts.
func (o *FleetOptions) Coordinator(tlsOpts *TLSOptions, local *harness.Runner, logger *slog.Logger) (*Coordinator, error) {
	c := &Coordinator{AuthToken: ResolveToken(o.AuthToken), Cache: local.Cache, Local: local,
		Progress: local.Progress, Logger: logger}
	if o.Remote == "" {
		return c, nil
	}
	client, err := tlsOpts.Client()
	if err != nil {
		return nil, err
	}
	c.Client = client
	c.Endpoints = ApplyScheme(SplitEndpoints(o.Remote), tlsOpts.Scheme())
	return c, nil
}

// baseURL normalizes a configured endpoint to a scheme-qualified base.
func baseURL(ep string) string {
	if strings.Contains(ep, "://") {
		return strings.TrimSuffix(ep, "/")
	}
	return "http://" + ep
}

// Run implements harness.Executor. With no endpoints it delegates to the
// local runner; otherwise it validates, serves what it can from Cache,
// probes Endpoints (AddRemote) and dispatches the remaining jobs as one
// batch across the live members. A stale endpoint, a shard refused by
// the fleet maxShardAttempts times, every member dropped or a cancelled
// context aborts the batch; already-completed shards remain in Cache.
func (c *Coordinator) Run(ctx context.Context, jobs []harness.Job) ([]harness.Result, error) {
	if len(c.Endpoints) == 0 {
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

	members, skipped, err := AddRemote(ctx, c.client(), c.AuthToken, c.Endpoints)
	if err != nil {
		return nil, err
	}
	for _, s := range skipped {
		c.logf("dist: skipping worker %s", s)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("dist: no live workers among %s (skipped %s)",
			strings.Join(c.Endpoints, ","), strings.Join(skipped, "; "))
	}

	s := newScheduler(c, jobs, miss, func(idx int, jr JobResult) error {
		// Timing rides beside the results into the merged matrix; the
		// cache stores only jr.Results, so cached bytes stay identical
		// to a serial local run.
		results[idx] = harness.Result{Job: jobs[idx], Results: jr.Results, Cached: jr.Cached, Timing: jr.Timing}
		if c.Cache != nil {
			if err := c.Cache.Put(jobs[idx], jr.Results); err != nil {
				return fmt.Errorf("cache put: %w", err)
			}
		}
		return nil
	})
	nshards := len(s.queue.tasks)
	c.logf("dist: %d jobs in %d shards across %d workers", len(miss), nshards, len(members))
	c.log().Info("batch start", "trace", s.trace, "jobs", len(miss), "shards", nshards, "workers", len(members))
	if err := s.dispatch(ctx, members); err != nil {
		return nil, err
	}
	return results, nil
}

// Probe fetches one endpoint's handshake (PathHealthz), the client half
// of the /healthz contract. AddRemote probes every -remote endpoint
// through it.
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
	if err := readJSON(resp.Body, &h); err != nil {
		return Hello{}, fmt.Errorf("healthz: %w", err)
	}
	return h, nil
}

// ExecuteShard sends one job batch to one member over the wire protocol
// and returns its positional results. The second return is a fatal error
// (version mismatch: this worker can never serve this process), the
// third a retryable one (requeue the shard for the rest of the fleet).
// The scheduler's serve loops dispatch every shard through it.
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
			return RunResponse{}, fmt.Errorf("dist: worker %s: %s", m.Base, eb.Error), nil
		}
		return RunResponse{}, nil, fmt.Errorf("run: %s: %s", resp.Status, eb.Error)
	}
	var rr RunResponse
	if err := readJSON(resp.Body, &rr); err != nil {
		return RunResponse{}, nil, fmt.Errorf("run: decode: %w", err)
	}
	if len(rr.Results) != len(batch) {
		return RunResponse{}, nil, fmt.Errorf("run: %d results for %d jobs", len(rr.Results), len(batch))
	}
	// Each job runs one core per workload. A reply that breaks this would
	// reach Cache.Put, so it is retried like any other bad reply.
	for i, jr := range rr.Results {
		if len(jr.Results) != len(batch[i].Workloads) {
			return RunResponse{}, nil, fmt.Errorf("run: job %d (%s): %d results for %d workloads",
				i, batch[i].Describe(), len(jr.Results), len(batch[i].Workloads))
		}
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
