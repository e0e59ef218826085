package dist

import (
	"crypto/subtle"
	"net"
	"net/http"
	"os"
	"strings"
)

// AuthEnv is the environment variable both CLIs fall back to when
// -auth-token is not given, so a fleet-wide token can live in the
// environment instead of on process command lines.
const AuthEnv = "VBI_AUTH_TOKEN"

// ResolveToken returns the -auth-token flag value, or $VBI_AUTH_TOKEN when
// the flag is empty.
func ResolveToken(flagValue string) string {
	if flagValue != "" {
		return flagValue
	}
	return os.Getenv(AuthEnv)
}

// setAuth attaches the shared fleet token to an outgoing request.
func setAuth(req *http.Request, token string) {
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
}

// RequireAuth wraps a handler with the shared-token gate: when token is
// non-empty, every request without the exact bearer token gets 401, so
// an unauthenticated coordinator cannot hand a worker shards.
func RequireAuth(token string, next http.Handler) http.Handler {
	if token == "" {
		return next
	}
	const scheme = "Bearer "
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		// The scheme is required (a malformed header is a 401, not a
		// second accepted form), and the comparison is constant-time so
		// the token cannot be guessed byte by byte from response timing.
		h := req.Header.Get("Authorization")
		if !strings.HasPrefix(h, scheme) || subtle.ConstantTimeCompare([]byte(h[len(scheme):]), []byte(token)) != 1 {
			writeJSON(rw, http.StatusUnauthorized, errorBody{Error: "missing or wrong auth token"})
			return
		}
		next.ServeHTTP(rw, req)
	})
}

// NonLoopbackBind reports whether a listen address accepts connections
// from beyond the loopback interface. vbiworker uses it to warn when it
// is reachable from the network without an auth token or TLS configured.
func NonLoopbackBind(addr string) bool {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		host = addr
	}
	if host == "" {
		return true // ":9471" binds every interface
	}
	if host == "localhost" {
		return false
	}
	ip := net.ParseIP(host)
	if ip == nil {
		return true // a hostname: assume routable
	}
	return !ip.IsLoopback()
}
