package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vbi/internal/harness"
)

func postRegister(t *testing.T, url string, body RegisterRequest, token string) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+PathRegister, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	setAuth(req, token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestRegistryRegisterHTTP pins the /register contract: a valid join is
// accepted (with the heartbeat interval announced), an unspecified host in
// the advertised address is filled from the connection's source, and a
// version mismatch is refused with 412.
func TestRegistryRegisterHTTP(t *testing.T) {
	reg := &Registry{TTL: time.Minute}
	srv := httptest.NewServer(reg.Handler())
	t.Cleanup(srv.Close)

	resp := postRegister(t, srv.URL, RegisterRequest{
		Version: ProtocolVersion, Workers: 3, Addr: ":9876", Instance: "i1"}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register status = %s, want 200", resp.Status)
	}
	var rr RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Version != ProtocolVersion {
		t.Errorf("response version = %q, want %q", rr.Version, ProtocolVersion)
	}
	if want := time.Minute.Milliseconds() / 3; rr.HeartbeatMillis != want {
		t.Errorf("heartbeat = %dms, want %dms", rr.HeartbeatMillis, want)
	}
	live := reg.Live()
	if len(live) != 1 {
		t.Fatalf("Live() = %d members, want 1", len(live))
	}
	m := live[0]
	if m.Weight != 3 || m.Static || m.Instance != "i1" {
		t.Errorf("member = %+v, want weight 3, dynamic, instance i1", m)
	}
	// ":9876" has no host: it must have been derived from the loopback
	// connection, not registered verbatim.
	if !strings.HasPrefix(m.Base, "http://127.0.0.1:9876") {
		t.Errorf("member base = %q, want host derived from the registering connection", m.Base)
	}

	stale := postRegister(t, srv.URL, RegisterRequest{
		Version: "vbi-harness-v0", Workers: 1, Addr: ":1"}, "")
	if stale.StatusCode != http.StatusPreconditionFailed {
		t.Errorf("stale-version register status = %s, want 412", stale.Status)
	}
	if len(reg.Live()) != 1 {
		t.Errorf("stale worker joined the registry")
	}
}

// TestRegistryEviction asserts dead-worker detection: a dynamic member
// whose heartbeats stop is evicted after TTL, while a static member and a
// still-heartbeating member stay.
func TestRegistryEviction(t *testing.T) {
	reg := &Registry{TTL: 50 * time.Millisecond}
	reg.Add("10.0.0.1:1", 1, true, "")   // static: never expires
	reg.Add("10.0.0.2:1", 1, false, "a") // dynamic: will go silent
	reg.Add("10.0.0.3:1", 1, false, "b") // dynamic: keeps heartbeating

	deadline := time.Now().Add(2 * time.Second)
	for len(reg.Live()) == 3 && time.Now().Before(deadline) {
		reg.Add("10.0.0.3:1", 1, false, "b") // heartbeat
		time.Sleep(5 * time.Millisecond)
	}
	ids := map[string]bool{}
	for _, m := range reg.Live() {
		ids[m.ID] = true
	}
	if !ids["http://10.0.0.1:1"] || ids["http://10.0.0.2:1"] || !ids["http://10.0.0.3:1"] {
		t.Errorf("after silence: live = %v, want static + heartbeating only", ids)
	}
}

// TestRegistryQuarantine asserts the failure-drop semantics: after Remove,
// heartbeats from the same instance do not readmit the member, but a new
// instance (a restarted process) does immediately.
func TestRegistryQuarantine(t *testing.T) {
	reg := &Registry{TTL: time.Minute}
	reg.Add("10.0.0.9:1", 1, false, "inst1")
	reg.Remove("http://10.0.0.9:1")
	if n := len(reg.Live()); n != 0 {
		t.Fatalf("removed member still live (%d)", n)
	}
	reg.Add("10.0.0.9:1", 1, false, "inst1") // heartbeat from the wedged incarnation
	if n := len(reg.Live()); n != 0 {
		t.Errorf("quarantined member readmitted by its own heartbeat")
	}
	reg.Add("10.0.0.9:1", 1, false, "inst2") // restart
	if n := len(reg.Live()); n != 1 {
		t.Errorf("restarted member not readmitted (live = %d)", n)
	}
}

// TestRegistryStaticPreRegistrationKeepsQuarantine covers a worker that
// is both in the -remote list and joining dynamically: a static
// pre-registration (as each figure's Run performs) must neither erase
// the dynamic incarnation's instance nor lift an active quarantine, or
// the next routine heartbeat would be misread as a restart.
func TestRegistryStaticPreRegistrationKeepsQuarantine(t *testing.T) {
	reg := &Registry{TTL: time.Minute}
	reg.Add("10.0.0.9:1", 1, false, "inst1")
	reg.Remove("http://10.0.0.9:1") // dropped for failures: quarantined
	reg.Add("10.0.0.9:1", 1, true, "")
	if n := len(reg.Live()); n != 0 {
		t.Fatalf("static pre-registration lifted the quarantine (live = %d)", n)
	}
	reg.Add("10.0.0.9:1", 1, false, "inst1") // heartbeat, same incarnation
	if n := len(reg.Live()); n != 0 {
		t.Errorf("heartbeat after static pre-registration was misread as a restart")
	}
	reg.Add("10.0.0.9:1", 1, false, "inst2") // genuine restart
	live := reg.Live()
	if len(live) != 1 {
		t.Fatalf("restarted member not readmitted (live = %d)", len(live))
	}
	if !live[0].Static {
		t.Errorf("static flag not sticky across dynamic re-registration")
	}
}

// TestAddRemote pins the one -remote seeding policy every front-end
// shares: a live endpoint joins as a static member at its advertised
// width, draining and unreachable endpoints are skipped with a log line,
// and a stale endpoint fails the whole list before anything registers.
func TestAddRemote(t *testing.T) {
	seed := func(t *testing.T, endpoints ...string) (*Registry, string, error) {
		t.Helper()
		var log bytes.Buffer
		reg := &Registry{Log: &log}
		_, err := reg.AddRemote(context.Background(), http.DefaultClient, "", endpoints)
		return reg, log.String(), err
	}

	t.Run("live", func(t *testing.T) {
		live := newWorkerServer(t, 3)
		reg, _, err := seed(t, live.URL)
		if err != nil {
			t.Fatal(err)
		}
		got := reg.Live()
		if len(got) != 1 || got[0].ID != live.URL || !got[0].Static || got[0].Weight != 3 {
			t.Errorf("live worker seeded as %+v, want one static member %s of weight 3", got, live.URL)
		}
	})

	t.Run("draining", func(t *testing.T) {
		w := &Worker{Runner: &harness.Runner{Workers: 2}}
		w.SetDraining(true)
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		reg, log, err := seed(t, srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(reg.Snapshot()); n != 0 {
			t.Errorf("draining worker registered (%d members)", n)
		}
		if !strings.Contains(log, "draining worker "+srv.URL) {
			t.Errorf("log does not name the draining worker:\n%s", log)
		}
	})

	t.Run("unreachable", func(t *testing.T) {
		srv := httptest.NewServer(http.NotFoundHandler())
		srv.Close()
		reg, log, err := seed(t, srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(reg.Snapshot()); n != 0 {
			t.Errorf("closed listener registered (%d members)", n)
		}
		if !strings.Contains(log, "unreachable worker "+srv.URL) {
			t.Errorf("log does not name the closed listener:\n%s", log)
		}
	})

	t.Run("stale", func(t *testing.T) {
		live := newWorkerServer(t, 1)
		stale := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			writeJSON(rw, http.StatusOK, Hello{Service: "vbiworker", Version: "vbi-harness-v0", Workers: 1})
		}))
		t.Cleanup(stale.Close)
		reg, _, err := seed(t, live.URL, stale.URL)
		if err == nil {
			t.Fatal("stale endpoint accepted")
		}
		for _, want := range []string{stale.URL, "vbi-harness-v0", ProtocolVersion} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not contain %q", err, want)
			}
		}
		if n := len(reg.Snapshot()); n != 0 {
			t.Errorf("stale list registered %d members, want 0", n)
		}
	})
}

// TestWorkerAuth asserts the shared-token gate on the worker's endpoints:
// missing and wrong tokens get 401 on every route, the right token is
// served, and a tokenless worker stays open.
func TestWorkerAuth(t *testing.T) {
	srv := httptest.NewServer((&Worker{
		Runner:    &harness.Runner{Workers: 1},
		AuthToken: "sesame",
	}).Handler())
	t.Cleanup(srv.Close)

	get := func(token string) int {
		req, err := http.NewRequest(http.MethodGet, srv.URL+PathHealthz, nil)
		if err != nil {
			t.Fatal(err)
		}
		setAuth(req, token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get(""); got != http.StatusUnauthorized {
		t.Errorf("healthz without token = %d, want 401", got)
	}
	if got := get("wrong"); got != http.StatusUnauthorized {
		t.Errorf("healthz with wrong token = %d, want 401", got)
	}
	if got := get("sesame"); got != http.StatusOK {
		t.Errorf("healthz with right token = %d, want 200", got)
	}
	// The right token under the wrong (or missing) scheme is malformed
	// credentials, not a second accepted header form.
	req, err := http.NewRequest(http.MethodGet, srv.URL+PathHealthz, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "sesame")
	resp0, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp0.Body.Close()
	if resp0.StatusCode != http.StatusUnauthorized {
		t.Errorf("healthz with schemeless token = %s, want 401", resp0.Status)
	}

	// /run is gated too: a tokenless POST must be rejected before any job
	// runs.
	resp, err := http.Post(srv.URL+PathRun, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("run without token = %s, want 401", resp.Status)
	}
}

// TestRegistryAuth asserts the /register gate: an unauthenticated host
// cannot join a token-protected fleet.
func TestRegistryAuth(t *testing.T) {
	reg := &Registry{TTL: time.Minute, AuthToken: "sesame"}
	srv := httptest.NewServer(reg.Handler())
	t.Cleanup(srv.Close)

	req := RegisterRequest{Version: ProtocolVersion, Workers: 1, Addr: ":9876"}
	if resp := postRegister(t, srv.URL, req, ""); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("register without token = %s, want 401", resp.Status)
	}
	if resp := postRegister(t, srv.URL, req, "wrong"); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("register with wrong token = %s, want 401", resp.Status)
	}
	if len(reg.Live()) != 0 {
		t.Fatalf("unauthenticated host joined the registry")
	}
	if resp := postRegister(t, srv.URL, req, "sesame"); resp.StatusCode != http.StatusOK {
		t.Errorf("register with right token = %s, want 200", resp.Status)
	}
	if len(reg.Live()) != 1 {
		t.Errorf("authenticated join not registered")
	}
}

// TestAuthedSweep runs a full distributed sweep with the token configured
// on both sides: the coordinator must authenticate its /healthz and /run
// traffic against the token-gated worker.
func TestAuthedSweep(t *testing.T) {
	jobs := testJobs(t)
	want := localResults(t, jobs)
	srv := httptest.NewServer((&Worker{
		Runner:    &harness.Runner{Workers: 2},
		AuthToken: "sesame",
	}).Handler())
	t.Cleanup(srv.Close)

	// Without the token the handshake fails and the run aborts.
	if _, err := (&Coordinator{Endpoints: []string{srv.URL}}).Run(context.Background(), jobs); err == nil {
		t.Fatal("tokenless coordinator ran against a token-gated worker")
	}

	got, err := (&Coordinator{Endpoints: []string{srv.URL}, AuthToken: "sesame"}).
		Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	matchLocal(t, got, want)
}

// TestJoinerRejection asserts a Joiner gives up (instead of retrying
// forever) when the coordinator rejects it outright: wrong token, or a
// mismatched harness version.
func TestJoinerRejection(t *testing.T) {
	reg := &Registry{TTL: time.Minute, AuthToken: "sesame"}
	srv := httptest.NewServer(reg.Handler())
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := (&Joiner{Coordinator: srv.URL, Advertise: ":9876", Workers: 1, AuthToken: "wrong"}).Run(ctx)
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Errorf("wrong-token join: err = %v, want rejection", err)
	}
	if ctx.Err() != nil {
		t.Errorf("joiner kept retrying a 401 until the deadline")
	}
}

// TestJoinerRetriesUntilCoordinatorAppears asserts a worker outlives the
// coordinator: a Joiner started before any fleet listener exists keeps
// retrying and registers as soon as one appears.
func TestJoinerRetriesUntilCoordinatorAppears(t *testing.T) {
	reg := &Registry{TTL: time.Minute}
	// Reserve an address, but don't serve /register yet.
	srv := httptest.NewUnstartedServer(reg.Handler())
	addr := srv.Listener.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	joinDone := make(chan error, 1)
	go func() {
		joinDone <- (&Joiner{Coordinator: addr, Advertise: ":9876", Workers: 2}).Run(ctx)
	}()

	time.Sleep(50 * time.Millisecond) // let at least one attempt fail
	srv.Start()
	t.Cleanup(srv.Close)

	deadline := time.Now().Add(5 * time.Second)
	for len(reg.Live()) == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if len(reg.Live()) != 1 {
		t.Fatal("joiner never registered after the coordinator appeared")
	}
	cancel()
	if err := <-joinDone; err != nil {
		t.Errorf("cancelled joiner returned %v, want nil", err)
	}
}

// TestNonLoopbackBind pins the warning heuristic the CLIs use.
func TestNonLoopbackBind(t *testing.T) {
	for addr, want := range map[string]bool{
		":9471":          true,
		"0.0.0.0:9471":   true,
		"10.0.0.7:9471":  true,
		"worker-3:9471":  true,
		"127.0.0.1:9471": false,
		"localhost:9471": false,
		"[::1]:9471":     false,
	} {
		if got := NonLoopbackBind(addr); got != want {
			t.Errorf("NonLoopbackBind(%q) = %v, want %v", addr, got, want)
		}
	}
}
