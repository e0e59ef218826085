package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Member is one fleet worker as the coordinator sees it. It rides inside
// MemberInfo on the /status plane, so the json tags pin the historical
// (untagged) field names.
//
//vbi:wire
type Member struct {
	// ID is the normalized base URL; it doubles as the registry key, so a
	// worker re-registering the same address is an upsert, not a duplicate.
	ID string `json:"ID"`
	// Base is the URL shards are POSTed to (same as ID).
	Base string `json:"Base"`
	// Weight is the worker's advertised pool width: shards pulled per round.
	Weight int `json:"Weight"`
	// Static marks a pre-registered -remote endpoint: it sends no
	// heartbeats and is never TTL-evicted, only removed when it fails.
	Static bool `json:"Static"`
	// Instance identifies one worker process lifetime. A re-register with a
	// different instance is a restart (and clears any failure quarantine); a
	// re-register with the same instance is a heartbeat.
	Instance string `json:"Instance"`
}

// Registry is the coordinator-side worker-fleet membership table. Dynamic
// members join over HTTP (Handler serves PathRegister) and stay alive by
// re-registering periodically; a dynamic member that misses heartbeats for
// TTL is evicted. Static members (the -remote list, seeded by AddRemote)
// never expire. The scheduler polls Live and spawns or cancels serve
// loops as membership churns, so a worker joining mid-sweep immediately
// starts pulling queued shards and a worker that dies has its in-flight
// shards requeued.
//
// A member removed for request failures (Remove) is quarantined: its
// heartbeats alone do not resurrect it (that would churn the scheduler
// against a wedged worker), but a register with a new Instance — a process
// restart — readmits it at once, and the quarantine lapses on its own:
// it starts at TTL and doubles per repeated drop of the same
// incarnation, capped at 8x TTL (see Remove).
type Registry struct {
	// TTL evicts a dynamic member this long after its last heartbeat and
	// is the base unit of the failure quarantine, which escalates from TTL
	// up to 8x TTL for repeated drops (<=0 = 15s). Workers are told to
	// re-register every TTL/3.
	TTL time.Duration
	// AuthToken, when non-empty, is required (constant-time bearer compare)
	// on every request Handler serves.
	AuthToken string
	// Log, when non-nil, receives join/eviction lines.
	Log io.Writer

	mu      sync.Mutex
	members map[string]*memberEntry
	dynamic bool

	logMu sync.Mutex // guards Log (logf runs on HTTP handler goroutines too)
}

type memberEntry struct {
	Member
	lastSeen    time.Time
	bannedUntil time.Time
	// drops counts failure removals of this incarnation; the quarantine
	// doubles with each one (capped), so a worker that deterministically
	// fails every shard decays to an occasional retry instead of churning
	// the scheduler forever. A new instance resets it.
	drops int
}

func (r *Registry) ttl() time.Duration {
	if r.TTL <= 0 {
		return 15 * time.Second
	}
	return r.TTL
}

func (r *Registry) logf(format string, args ...any) {
	if r.Log == nil {
		return
	}
	r.logMu.Lock()
	defer r.logMu.Unlock()
	fmt.Fprintf(r.Log, format+"\n", args...)
}

// Dynamic reports whether the registry accepts joins (Handler has been
// mounted). The scheduler waits for joins when a dynamic registry runs
// dry; a static registry running dry is fatal.
func (r *Registry) Dynamic() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dynamic
}

// Add registers (or refreshes) a member and returns its current record.
// For dynamic members this is the heartbeat: lastSeen moves, and a new
// Instance clears any failure quarantine.
func (r *Registry) Add(base string, weight int, static bool, instance string) Member {
	if weight <= 0 {
		weight = 1
	}
	id := baseURL(base)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members == nil {
		r.members = map[string]*memberEntry{}
	}
	e, ok := r.members[id]
	if !ok {
		e = &memberEntry{Member: Member{ID: id, Base: id}}
		r.members[id] = e
		r.logf("dist: worker %s joined (weight %d)", id, weight)
	}
	if static {
		// Pre-registration of the -remote list. Static is sticky and the
		// pre-registration never clobbers a dynamic incarnation's identity
		// or lifts its quarantine — a worker that is both listed and
		// joining (-remote plus -join) keeps its restart semantics.
		e.Static = true
	} else {
		if instance != "" && instance != e.Instance {
			e.bannedUntil = time.Time{}
			e.drops = 0
		}
		e.Instance = instance
	}
	e.Weight = weight
	e.lastSeen = time.Now()
	return e.Member
}

// Remove drops a member after request failures and quarantines it: until
// the quarantine lapses or the worker re-registers with a new Instance,
// its heartbeats do not readmit it. The quarantine starts at TTL and
// doubles per repeated drop of the same incarnation (capped at 8×TTL),
// so a deterministically failing worker is retried occasionally rather
// than redialed in a tight drop/readmit loop.
func (r *Registry) Remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.members[id]
	if !ok {
		return
	}
	if e.Static {
		delete(r.members, id)
		return
	}
	e.drops++
	ban := r.ttl() << min(e.drops-1, 3)
	e.bannedUntil = time.Now().Add(ban)
}

// AddRemote seeds the registry with a -remote endpoint list, the one
// path by which static members enter a fleet. Endpoints are probed
// concurrently, so unroutable hosts do not serialize their dial timeouts,
// and up to three times 300ms apart, so a worker still binding its
// socket is not missed. If any endpoint runs a different
// ProtocolVersion, AddRemote registers nothing and returns an error
// naming it: a stale worker binary means the fleet disagrees about the
// timing model, and silently excluding it would hide that. Unreachable
// and draining endpoints are skipped with a log line and returned as
// "<endpoint>: <reason>" (the probe error, or "draining"), so a caller
// left with no live worker can say why; the rest join as static members
// weighted by their advertised pool width. client must be non-nil.
func (r *Registry) AddRemote(ctx context.Context, client *http.Client, token string, endpoints []string) (skipped []string, err error) {
	hellos := make([]Hello, len(endpoints))
	errs := make([]error, len(endpoints))
	var wg sync.WaitGroup
	for i, ep := range endpoints {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for attempt := 1; ; attempt++ {
				hellos[i], errs[i] = Probe(ctx, client, ep, token)
				if errs[i] == nil || attempt == 3 || sleepCtx(ctx, 300*time.Millisecond) != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	// A cancelled caller is a cancellation, not a fleet of unreachable
	// workers.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, ep := range endpoints {
		if errs[i] == nil && hellos[i].Version != ProtocolVersion {
			return nil, fmt.Errorf("dist: worker %s runs %s, coordinator runs %s: refusing to mix timing models",
				ep, hellos[i].Version, ProtocolVersion)
		}
	}
	for i, ep := range endpoints {
		switch {
		case errs[i] != nil:
			r.logf("dist: skipping unreachable worker %s: %v", ep, errs[i])
			skipped = append(skipped, fmt.Sprintf("%s: %v", ep, errs[i]))
		case hellos[i].Draining:
			r.logf("dist: skipping draining worker %s", ep)
			skipped = append(skipped, ep+": draining")
		default:
			r.Add(ep, hellos[i].Workers, true, "")
		}
	}
	return skipped, nil
}

// Leave removes a member voluntarily (a draining worker's /leave): no
// quarantine, no penalty — the worker said goodbye, and a later register
// (same or new instance) readmits it immediately.
func (r *Registry) Leave(base string) {
	id := baseURL(base)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[id]; ok {
		delete(r.members, id)
		r.logf("dist: worker %s left the fleet", id)
	}
}

// MemberInfo is one member plus the observability fields the status plane
// reports alongside it.
//
//vbi:wire
type MemberInfo struct {
	Member
	// LastSeen is the time of the member's most recent heartbeat (or
	// pre-registration, for static members).
	LastSeen time.Time `json:"last_seen"`
	// Quarantined reports a member currently banned after request
	// failures: registered but not schedulable.
	Quarantined bool `json:"quarantined,omitempty"`
}

// Snapshot returns every registered member — including quarantined ones,
// which Live hides — sorted by ID, for status/metrics reporting. It does
// not evict; only Live has scheduling side effects.
func (r *Registry) Snapshot() []MemberInfo {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MemberInfo, 0, len(r.members))
	for _, e := range r.members {
		out = append(out, MemberInfo{
			Member:      e.Member,
			LastSeen:    e.lastSeen,
			Quarantined: now.Before(e.bannedUntil),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// WeightOf returns a member's current advertised weight, or def when the
// member is no longer registered. Dispatch loops re-read it each round so
// a worker that re-registers with a different pool width (a restart on a
// bigger machine) is honored mid-run.
func (r *Registry) WeightOf(id string, def int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.members[id]; ok && e.Weight > 0 {
		return e.Weight
	}
	return def
}

// Live returns the current schedulable members, sorted by ID. Dynamic
// members whose heartbeat is older than TTL are evicted as a side effect.
func (r *Registry) Live() []Member {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	// Visit members in sorted-ID order: the result comes out sorted
	// without a second pass, and eviction log lines land in a stable
	// order when several workers expire on the same poll.
	ids := make([]string, 0, len(r.members))
	for id := range r.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []Member
	for _, id := range ids {
		e := r.members[id]
		if !e.Static && now.Sub(e.lastSeen) > r.ttl() {
			r.logf("dist: evicting worker %s (no heartbeat for %s)", id, now.Sub(e.lastSeen).Round(time.Millisecond))
			delete(r.members, id)
			continue
		}
		if now.Before(e.bannedUntil) {
			continue
		}
		out = append(out, e.Member)
	}
	return out
}

// Handler returns the fleet routes (Mount) on a fresh mux behind the
// AuthToken gate, and marks the registry dynamic. Serve it on the
// coordinator's fleet listener (vbisweep -fleet / vbibench -fleet). A
// registration carrying a different
// ProtocolVersion is refused with 412 so a stale worker binary fails
// loudly at join time instead of poisoning a sweep.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	r.Mount(mux)
	return RequireAuth(r.AuthToken, mux)
}

// Mount registers the fleet routes on an existing mux (and marks the
// registry dynamic), for servers that serve more than the fleet protocol
// on one listener — the sweep daemon mounts its API and the fleet plane
// together. Auth is the caller's concern (the surrounding server gates
// everything once).
func (r *Registry) Mount(mux *http.ServeMux) {
	r.mu.Lock()
	r.dynamic = true
	r.mu.Unlock()
	mux.HandleFunc(PathRegister, r.handleRegister)
	mux.HandleFunc(PathLeave, r.handleLeave)
}

func (r *Registry) handleRegister(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeJSON(rw, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	var rr RegisterRequest
	if err := json.NewDecoder(req.Body).Decode(&rr); err != nil {
		writeJSON(rw, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad request: %v", err)})
		return
	}
	if rr.Version != ProtocolVersion {
		r.logf("dist: refused join from %s: worker is %s, coordinator is %s", req.RemoteAddr, rr.Version, ProtocolVersion)
		writeJSON(rw, http.StatusPreconditionFailed, errorBody{
			Error: fmt.Sprintf("version mismatch: worker %s, coordinator %s", rr.Version, ProtocolVersion)})
		return
	}
	addr, err := advertisedAddr(rr.Addr, req.RemoteAddr)
	if err != nil {
		writeJSON(rw, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	r.Add(addr, rr.Workers, false, rr.Instance)
	writeJSON(rw, http.StatusOK, RegisterResponse{
		Version:         ProtocolVersion,
		HeartbeatMillis: r.ttl().Milliseconds() / 3,
	})
}

// handleLeave serves a draining worker's voluntary deregistration. The
// body is the same RegisterRequest shape the join sends; no version gate
// — any worker may say goodbye, stale binary or not.
func (r *Registry) handleLeave(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeJSON(rw, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	var rr RegisterRequest
	if err := json.NewDecoder(req.Body).Decode(&rr); err != nil {
		writeJSON(rw, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad request: %v", err)})
		return
	}
	addr, err := advertisedAddr(rr.Addr, req.RemoteAddr)
	if err != nil {
		writeJSON(rw, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	r.Leave(addr)
	writeJSON(rw, http.StatusOK, RegisterResponse{Version: ProtocolVersion})
}

// advertisedAddr resolves a worker's advertised serving address. A missing
// or unspecified host (":9471", "0.0.0.0:9471") is filled in from the
// registering connection's source address, so a LAN worker can advertise
// just its port.
func advertisedAddr(adv, remote string) (string, error) {
	if adv == "" {
		return "", fmt.Errorf("register: no advertised address")
	}
	if strings.Contains(adv, "://") {
		return adv, nil
	}
	host, port, err := net.SplitHostPort(adv)
	if err != nil {
		return "", fmt.Errorf("register: advertised address %q: %w", adv, err)
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		rhost, _, err := net.SplitHostPort(remote)
		if err != nil {
			return "", fmt.Errorf("register: cannot derive host for %q from %q", adv, remote)
		}
		host = rhost
	}
	return net.JoinHostPort(host, port), nil
}
