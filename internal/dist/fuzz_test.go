package dist

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"vbi/internal/harness"
	"vbi/internal/system"
)

// FuzzRunResponse serves arbitrary bytes as a worker's reply to a one-job
// /run and checks how ExecuteShard reads them. It must never panic. Under
// 412 the reply is always fatal, whatever the body. Under 200 it is never
// fatal, and it is accepted exactly when the body unmarshals strictly (one
// document, nothing but whitespace after it) into a RunResponse with one
// job result holding one run result per workload.
func FuzzRunResponse(f *testing.F) {
	job := harness.Job{Spec: system.MustSpec("VBI-Full"), Workloads: []string{"namd", "sjeng"}, Refs: 1000, Seed: 1}
	valid, err := json.Marshal(RunResponse{Results: []JobResult{{
		Results: []system.RunResult{{System: "VBI-Full", Workload: "namd", IPC: 1.5}, {System: "VBI-Full", Workload: "sjeng"}},
	}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(append(valid, '\n'))
	f.Add(append(valid, "}{ garbage"...))
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"results":[{"results":[{}]}]}`))
	f.Add([]byte(`{"results":[{"results":[{},{}]},{"results":[{},{}]}]}`))
	f.Add([]byte(`{"results":[]}`))
	f.Add([]byte(`{"error":"synthetic failure"}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})

	// Fuzz calls run one at a time within a process, so one server serves
	// them all; the body and status are set before each call.
	var (
		mu     sync.Mutex
		body   []byte
		status int
	)
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		mu.Lock()
		b, code := body, status
		mu.Unlock()
		rw.WriteHeader(code)
		rw.Write(b)
	}))
	f.Cleanup(srv.Close)
	m := Member{Base: srv.URL}

	f.Fuzz(func(t *testing.T, data []byte) {
		var rr RunResponse
		wellFormed := json.Unmarshal(data, &rr) == nil &&
			len(rr.Results) == 1 && len(rr.Results[0].Results) == len(job.Workloads)
		for _, code := range []int{http.StatusOK, http.StatusPreconditionFailed} {
			mu.Lock()
			body, status = data, code
			mu.Unlock()
			got, fatal, err := ExecuteShard(context.Background(), srv.Client(), m, "", 10*time.Second, []harness.Job{job}, "")
			if code == http.StatusPreconditionFailed {
				if fatal == nil || err != nil {
					t.Fatalf("412 reply %q: fatal = %v, err = %v; want only a fatal error", data, fatal, err)
				}
				continue
			}
			if fatal != nil {
				t.Fatalf("200 reply %q: fatal error %v", data, fatal)
			}
			if accepted := err == nil; accepted != wellFormed {
				t.Fatalf("200 reply %q: err = %v, want accepted = %v", data, err, wellFormed)
			}
			if err == nil && len(got.Results) != 1 {
				t.Fatalf("200 reply %q: accepted with %d job results", data, len(got.Results))
			}
		}
	})
}
