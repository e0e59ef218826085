package dist

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Member is one worker of a run's fleet: a -remote endpoint that passed
// the /healthz handshake.
type Member struct {
	// Base is the normalized base URL shards are POSTed to.
	Base string
	// Weight is the worker's advertised pool width, at least 1: the
	// shards its serve loop pulls per request.
	Weight int
}

// AddRemote probes a -remote endpoint list and returns its live members,
// which are the whole fleet of a run. Endpoints naming one base URL
// ("host:p" and "http://host:p") are one endpoint, probed and served
// once. Endpoints are probed concurrently, so unroutable hosts do not
// serialize their dial timeouts, and up to three times 300ms apart, so a
// worker still binding its socket is not missed. If any endpoint runs a
// different ProtocolVersion, AddRemote returns an error naming it and no
// members: a stale worker binary means the fleet disagrees about the
// timing model, and silently excluding it would hide that. Unreachable
// and draining endpoints are skipped and returned as "<endpoint>:
// <reason>" (the probe error, or "draining"), so a caller left with no
// live worker can say why; the rest are members weighted by their
// advertised pool width. client must be non-nil.
func AddRemote(ctx context.Context, client *http.Client, token string, endpoints []string) (live []Member, skipped []string, err error) {
	var eps []string
	seen := map[string]bool{}
	for _, ep := range endpoints {
		if base := baseURL(ep); !seen[base] {
			seen[base] = true
			eps = append(eps, ep)
		}
	}
	hellos := make([]Hello, len(eps))
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for i, ep := range eps {
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
		return nil, nil, err
	}
	for i, ep := range eps {
		if errs[i] == nil && hellos[i].Version != ProtocolVersion {
			return nil, nil, fmt.Errorf("dist: worker %s runs %s, coordinator runs %s: refusing to mix timing models",
				ep, hellos[i].Version, ProtocolVersion)
		}
	}
	for i, ep := range eps {
		switch {
		case errs[i] != nil:
			skipped = append(skipped, fmt.Sprintf("%s: %v", ep, errs[i]))
		case hellos[i].Draining:
			skipped = append(skipped, ep+": draining")
		default:
			live = append(live, Member{Base: baseURL(ep), Weight: max(hellos[i].Workers, 1)})
		}
	}
	return live, skipped, nil
}
