package dist

import (
	"crypto/tls"
	"crypto/x509"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
)

// TLSOptions is the shared TLS/mTLS configuration of both ends of the
// dist protocol: the worker's shard server and the coordinator's client.
// One flag triple covers both roles:
//
//   - -tls-cert/-tls-key: this process's own certificate. A server with a
//     certificate serves HTTPS instead of HTTP; a client with one presents
//     it (the mTLS client half).
//   - -tls-ca: the CA bundle the peer must chain to. On a server this
//     demands and verifies client certificates (mTLS); on a client it
//     replaces the system roots for verifying the server (so self-signed
//     fleet CAs work without touching the host trust store).
//
// All three empty means plain HTTP — the loopback default. The shared
// bearer token (AuthToken) is independent and composes: mTLS
// authenticates the transport, the token authorizes the request.
type TLSOptions struct {
	// CertFile/KeyFile are this process's PEM certificate and key.
	CertFile, KeyFile string
	// CAFile is the PEM CA bundle peers must chain to.
	CAFile string
}

// Flags registers the -tls-cert/-tls-key/-tls-ca triple on fs.
func (o *TLSOptions) Flags(fs *flag.FlagSet) {
	fs.StringVar(&o.CertFile, "tls-cert", "", "PEM certificate: serve HTTPS / present as client cert (with -tls-key)")
	fs.StringVar(&o.KeyFile, "tls-key", "", "PEM private key for -tls-cert")
	fs.StringVar(&o.CAFile, "tls-ca", "", "PEM CA bundle: verify peer certs (server: require client certs; client: trust this CA for servers)")
}

// Enabled reports whether any TLS material was configured.
func (o *TLSOptions) Enabled() bool {
	return o.CertFile != "" || o.KeyFile != "" || o.CAFile != ""
}

// Scheme returns the URL scheme endpoints default to under this
// configuration: "https" once any TLS material is configured, else "http".
func (o *TLSOptions) Scheme() string {
	if o.Enabled() {
		return "https"
	}
	return "http"
}

func (o *TLSOptions) certificate() (tls.Certificate, bool, error) {
	if o.CertFile == "" && o.KeyFile == "" {
		return tls.Certificate{}, false, nil
	}
	if o.CertFile == "" || o.KeyFile == "" {
		return tls.Certificate{}, false, fmt.Errorf("dist: -tls-cert and -tls-key must be given together")
	}
	cert, err := tls.LoadX509KeyPair(o.CertFile, o.KeyFile)
	if err != nil {
		return tls.Certificate{}, false, fmt.Errorf("dist: load key pair: %w", err)
	}
	return cert, true, nil
}

func (o *TLSOptions) caPool() (*x509.CertPool, error) {
	if o.CAFile == "" {
		return nil, nil
	}
	pem, err := os.ReadFile(o.CAFile)
	if err != nil {
		return nil, fmt.Errorf("dist: read CA bundle: %w", err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return nil, fmt.Errorf("dist: no certificates in CA bundle %s", o.CAFile)
	}
	return pool, nil
}

// ServerConfig builds the listener-side tls.Config: nil (plain HTTP) when
// no TLS material is configured. A certificate is mandatory to serve TLS;
// a CA bundle escalates to mTLS (client certificates required and
// verified against it).
func (o *TLSOptions) ServerConfig() (*tls.Config, error) {
	if !o.Enabled() {
		return nil, nil
	}
	cert, ok, err := o.certificate()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("dist: serving TLS needs -tls-cert/-tls-key (got only -tls-ca)")
	}
	cfg := &tls.Config{
		Certificates: []tls.Certificate{cert},
		MinVersion:   tls.VersionTLS12,
	}
	pool, err := o.caPool()
	if err != nil {
		return nil, err
	}
	if pool != nil {
		cfg.ClientCAs = pool
		cfg.ClientAuth = tls.RequireAndVerifyClientCert
	}
	return cfg, nil
}

// Client builds an HTTP client for dialing fleet peers: the default
// client when no TLS material is configured, otherwise one whose
// transport trusts -tls-ca for server verification (falling back to the
// system roots when absent) and presents -tls-cert/-tls-key when given
// (the mTLS client half).
func (o *TLSOptions) Client() (*http.Client, error) {
	if !o.Enabled() {
		return http.DefaultClient, nil
	}
	cfg := &tls.Config{MinVersion: tls.VersionTLS12}
	pool, err := o.caPool()
	if err != nil {
		return nil, err
	}
	if pool != nil {
		cfg.RootCAs = pool
	}
	cert, ok, err := o.certificate()
	if err != nil {
		return nil, err
	}
	if ok {
		cfg.Certificates = []tls.Certificate{cert}
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.TLSClientConfig = cfg
	return &http.Client{Transport: tr}, nil
}

// ApplyScheme prefixes every scheme-less endpoint with scheme://, so
// "-remote host:9471" under -tls-ca dials https without the operator
// spelling the scheme on every entry. Already-qualified endpoints pass
// through untouched (a mixed fleet stays expressible).
func ApplyScheme(endpoints []string, scheme string) []string {
	out := make([]string, len(endpoints))
	for i, ep := range endpoints {
		if strings.Contains(ep, "://") {
			out[i] = ep
		} else {
			out[i] = scheme + "://" + ep
		}
	}
	return out
}
