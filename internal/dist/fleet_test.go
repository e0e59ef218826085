package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vbi/internal/harness"
)

// TestAddRemote pins the one -remote probe every front-end shares: a
// live endpoint is a member at its advertised width, draining and
// unreachable endpoints are skipped with their reason, and a stale
// endpoint fails the whole list.
func TestAddRemote(t *testing.T) {
	probe := func(t *testing.T, endpoints ...string) ([]Member, []string, error) {
		t.Helper()
		return AddRemote(context.Background(), http.DefaultClient, "", endpoints)
	}

	t.Run("live", func(t *testing.T) {
		live := newWorkerServer(t, 3)
		got, skipped, err := probe(t, live.URL)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != (Member{Base: live.URL, Weight: 3}) || len(skipped) != 0 {
			t.Errorf("live worker probed as %+v (skipped %q), want one member %s of weight 3", got, skipped, live.URL)
		}
	})

	t.Run("draining", func(t *testing.T) {
		w := &Worker{Runner: &harness.Runner{Workers: 2}}
		w.SetDraining(true)
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		got, skipped, err := probe(t, srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Errorf("draining worker is a member: %+v", got)
		}
		if len(skipped) != 1 || skipped[0] != srv.URL+": draining" {
			t.Errorf("skipped = %q, want the draining worker", skipped)
		}
	})

	t.Run("unreachable", func(t *testing.T) {
		srv := httptest.NewServer(http.NotFoundHandler())
		srv.Close()
		got, skipped, err := probe(t, srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Errorf("closed listener is a member: %+v", got)
		}
		if len(skipped) != 1 || !strings.HasPrefix(skipped[0], srv.URL+": ") {
			t.Errorf("skipped = %q, want the closed listener with its probe error", skipped)
		}
	})

	t.Run("stale", func(t *testing.T) {
		live := newWorkerServer(t, 1)
		stale := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			writeJSON(rw, http.StatusOK, Hello{Service: "vbiworker", Version: "vbi-harness-v0", Workers: 1})
		}))
		t.Cleanup(stale.Close)
		got, _, err := probe(t, live.URL, stale.URL)
		if err == nil {
			t.Fatal("stale endpoint accepted")
		}
		for _, want := range []string{stale.URL, "vbi-harness-v0", ProtocolVersion} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not contain %q", err, want)
			}
		}
		if len(got) != 0 {
			t.Errorf("stale list returned %d members, want 0", len(got))
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
