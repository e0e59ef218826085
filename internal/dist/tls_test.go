package dist

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"math/big"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vbi/internal/harness"
)

// testCA is a throwaway PKI for TLS tests: a self-signed CA plus signed
// leaf certificates for 127.0.0.1, written as PEM files the way the
// -tls-* flags expect them.
type testCA struct {
	t      *testing.T
	dir    string
	caCert *x509.Certificate
	caKey  *ecdsa.PrivateKey
	// CAFile is the PEM bundle peers verify against.
	CAFile string
}

func newTestCA(t *testing.T) *testCA {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "vbi-test-ca"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	ca := &testCA{t: t, dir: t.TempDir(), caCert: cert, caKey: key}
	ca.CAFile = ca.writePEM("ca.pem", "CERTIFICATE", der)
	return ca
}

func (ca *testCA) writePEM(name, blockType string, der []byte) string {
	ca.t.Helper()
	path := filepath.Join(ca.dir, name)
	b := pem.EncodeToMemory(&pem.Block{Type: blockType, Bytes: der})
	if err := os.WriteFile(path, b, 0o600); err != nil {
		ca.t.Fatal(err)
	}
	return path
}

// leaf issues a CA-signed certificate for 127.0.0.1/localhost and returns
// the cert and key file paths.
func (ca *testCA) leaf(name string) (certFile, keyFile string) {
	ca.t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		ca.t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(time.Now().UnixNano()),
		Subject:      pkix.Name{CommonName: name},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth, x509.ExtKeyUsageClientAuth},
		DNSNames:     []string{"localhost"},
		IPAddresses:  []net.IP{net.ParseIP("127.0.0.1")},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.caCert, &key.PublicKey, ca.caKey)
	if err != nil {
		ca.t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		ca.t.Fatal(err)
	}
	return ca.writePEM(name+".pem", "CERTIFICATE", der),
		ca.writePEM(name+".key", "EC PRIVATE KEY", keyDER)
}

// startTLSWorker serves a Worker over HTTPS (mTLS when mutual) on a
// loopback port and returns its base URL.
func startTLSWorker(t *testing.T, ca *testCA, w *Worker, mutual bool) string {
	t.Helper()
	cert, key := ca.leaf("worker")
	opts := &TLSOptions{CertFile: cert, KeyFile: key}
	if mutual {
		opts.CAFile = ca.CAFile
	}
	cfg, err := opts.ServerConfig()
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, err := serve("127.0.0.1:0", w.Handler(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return "https://" + addr
}

// TestTLSWorkerHandshake runs the full client/server TLS matrix against a
// real worker: a CA-trusting client succeeds, the default client (system
// roots) fails, and plain HTTP against the TLS port fails.
func TestTLSWorkerHandshake(t *testing.T) {
	ca := newTestCA(t)
	base := startTLSWorker(t, ca, &Worker{Runner: &harness.Runner{Workers: 1}}, false)

	client, err := (&TLSOptions{CAFile: ca.CAFile}).Client()
	if err != nil {
		t.Fatal(err)
	}
	h, err := Probe(context.Background(), client, base, "")
	if err != nil {
		t.Fatalf("probe over TLS: %v", err)
	}
	if h.Version != ProtocolVersion {
		t.Errorf("version = %s, want %s", h.Version, ProtocolVersion)
	}

	if _, err := Probe(context.Background(), http.DefaultClient, base, ""); err == nil {
		t.Error("default client trusted the self-signed fleet CA")
	}
	plain := "http://" + strings.TrimPrefix(base, "https://")
	if _, err := Probe(context.Background(), http.DefaultClient, plain, ""); err == nil {
		t.Error("plain HTTP against a TLS listener succeeded")
	}
}

// TestMTLSRequiresClientCert asserts the -tls-ca server side: a client
// without a certificate is refused at the handshake, one presenting a
// CA-signed certificate is served.
func TestMTLSRequiresClientCert(t *testing.T) {
	ca := newTestCA(t)
	base := startTLSWorker(t, ca, &Worker{Runner: &harness.Runner{Workers: 1}}, true)

	bare, err := (&TLSOptions{CAFile: ca.CAFile}).Client()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Probe(context.Background(), bare, base, ""); err == nil {
		t.Error("mTLS server accepted a client with no certificate")
	}

	cert, key := ca.leaf("client")
	authed, err := (&TLSOptions{CAFile: ca.CAFile, CertFile: cert, KeyFile: key}).Client()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Probe(context.Background(), authed, base, ""); err != nil {
		t.Errorf("mTLS probe with a CA-signed client cert failed: %v", err)
	}
}

// TestTLSCoordinatorRunsJobs runs a small batch end-to-end over mTLS: the
// coordinator presents a client certificate, the worker requires it, and
// the results match a serial local run.
func TestTLSCoordinatorRunsJobs(t *testing.T) {
	ca := newTestCA(t)
	base := startTLSWorker(t, ca, &Worker{Runner: &harness.Runner{Workers: 2}}, true)

	cert, key := ca.leaf("coordinator")
	client, err := (&TLSOptions{CAFile: ca.CAFile, CertFile: cert, KeyFile: key}).Client()
	if err != nil {
		t.Fatal(err)
	}
	jobs := testJobs(t)
	got, err := (&Coordinator{Endpoints: []string{base}, Client: client}).
		Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	matchLocal(t, got, localResults(t, jobs))
}

// TestTLSOptionsValidation pins the flag-combination errors: a cert
// without a key, and serving with only a CA bundle.
func TestTLSOptionsValidation(t *testing.T) {
	if _, err := (&TLSOptions{CertFile: "x.pem"}).Client(); err == nil {
		t.Error("cert without key accepted")
	}
	if _, err := (&TLSOptions{CAFile: "nope.pem", CertFile: "", KeyFile: ""}).ServerConfig(); err == nil {
		t.Error("server with only -tls-ca accepted (no certificate to serve)")
	}
	eps := ApplyScheme([]string{"host:1", "http://host:2"}, "https")
	if eps[0] != "https://host:1" || eps[1] != "http://host:2" {
		t.Errorf("ApplyScheme = %v", eps)
	}
}

// TestWorkerDrain asserts the graceful-drain contract: a draining worker
// advertises it on /healthz, refuses new shards with 503, and probing a
// -remote list skips it.
func TestWorkerDrain(t *testing.T) {
	w := &Worker{Runner: &harness.Runner{Workers: 1}}
	srv, addr, err := serve("127.0.0.1:0", w.Handler(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	base := "http://" + addr

	w.SetDraining(true)
	h, err := Probe(context.Background(), http.DefaultClient, base, "")
	if err != nil {
		t.Fatal(err)
	}
	if !h.Draining {
		t.Error("draining worker's handshake does not advertise Draining")
	}
	_, fatal, retry := ExecuteShard(context.Background(), http.DefaultClient,
		Member{Base: base}, "", time.Minute, testJobs(t)[:1], "")
	if fatal != nil {
		t.Fatalf("draining refusal was fatal: %v", fatal)
	}
	if retry == nil || !strings.Contains(retry.Error(), "draining") {
		t.Errorf("draining /run = %v, want retryable draining error", retry)
	}

	// Probing the -remote list must skip the draining worker instead of
	// scheduling onto it.
	live, _, err := AddRemote(context.Background(), http.DefaultClient, "", []string{base})
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 0 {
		t.Errorf("AddRemote returned %d members, want 0 (draining)", len(live))
	}
}

// serve starts an HTTP or HTTPS server (per tlsCfg) on addr and returns
// it with its bound listener address, as cmd/vbiworker serves a Worker.
func serve(addr string, handler http.Handler, tlsCfg *tls.Config) (*http.Server, string, error) {
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		TLSConfig:         tlsCfg,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	go func() {
		if tlsCfg != nil {
			// Certificates come from TLSConfig; the file arguments are unused.
			srv.ServeTLS(ln, "", "")
		} else {
			srv.Serve(ln)
		}
	}()
	return srv, ln.Addr().String(), nil
}
