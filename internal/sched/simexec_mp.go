package sched

import (
	"fmt"

	"detournet/internal/core"
	"detournet/internal/health"
	"detournet/internal/multipath"
	"detournet/internal/scenario"
	"detournet/internal/sdk"
	"detournet/internal/simproc"
)

// Compose retry shape: enough cumulative patience (~2+4+8+16+30+30+30
// ≈ 120 s) to sit out a withdraw window plus its staged reconvergence,
// without stalling a genuinely dead provider forever.
const (
	composeAttempts   = 8
	composeBackoffCap = 30.0
)

// pathConverging reports whether src->dst currently crosses a routing
// session inside its convergence window (bgppol.Dynamic.Converging) —
// transiently blackhole-prone even though the RIBs may still resolve
// it. A multipath lane whose path crosses one drains make-before-break:
// it stops claiming chunks before the blackhole eats one, instead of
// being torn down, and resumes once the plane settles. Callers hold
// e.mu.
func (e *SimExecutor) pathConverging(src, dst string) bool {
	if e.w.Routing == nil {
		return false
	}
	hops, ok := e.pathHops(src, dst)
	if !ok {
		return false
	}
	now := float64(e.w.Eng.Now())
	for i := 1; i < len(hops); i++ {
		a, b := hops[i-1].Domain, hops[i].Domain
		if a != b && e.w.Routing.Converging(a, b, now) {
			return true
		}
	}
	return false
}

// routeConverging applies pathConverging to a whole route (both hops of
// a detour). Callers hold e.mu.
func (e *SimExecutor) routeConverging(client, provider string, r core.Route) bool {
	host, ok := scenario.Providers[provider]
	if !ok {
		host = provider
	}
	switch r.Kind {
	case core.Direct:
		return e.pathConverging(client, host)
	case core.Detour:
		return e.pathConverging(client, r.Via) || e.pathConverging(r.Via, host)
	}
	return false
}

// flowPrefixes returns the transport flow-label prefixes
// ("scope|src->dst:port") that belong to one lane of one transfer — the
// handles for aborting exactly that lane's in-flight flows and nothing
// else. The scope (multipath.FlowScope, carried by the lane's process
// and adopted by the DTN agent for the second hop) pins the transfer,
// so the prefix can never match another transfer's flows even between
// the same endpoint pair; within a transfer, lanes never share an
// endpoint pair (direct is client->provider, each detour is client->DTN
// plus DTN->provider, and no two lanes ride the same DTN).
func flowPrefixes(scope, client, provider string, r core.Route) []string {
	host, ok := scenario.Providers[provider]
	if !ok {
		host = provider
	}
	if r.Kind == core.Direct {
		return []string{scope + "|" + client + "->" + host + ":"}
	}
	return []string{
		scope + "|" + client + "->" + r.Via + ":",
		scope + "|" + r.Via + "->" + host + ":",
	}
}

// ExecuteMultipath implements MultipathExecutor: the striped transfer
// runs as ONE simulation workload whose per-path sub-processes share
// the virtual network, so lanes genuinely compete for (and jointly
// fill) link capacity. Chunks upload as independent part objects —
// direct lanes through core.DirectUploadResumable, detour lanes through
// the DTN's store-and-forward resumable relay — and commit by
// provider-side compose in index order.
func (e *SimExecutor) ExecuteMultipath(job Job, routes []core.Route, chunk float64) (multipath.Report, error) {
	defer e.advanced()
	e.mu.Lock()
	defer e.mu.Unlock()

	paths := make([]multipath.Path, 0, len(routes))
	for i, r := range routes {
		r := r
		var up multipath.Uploader
		switch r.Kind {
		case core.Direct:
			cl := e.direct(job.Client, job.Provider)
			up = multipath.UploaderFunc(func(p *simproc.Proc, part string, size float64, ck *core.Checkpoint) error {
				// Per-chunk MD5s are not threaded (the whole-file digest is
				// checked at compose), so the empty digest skips the
				// per-object verify.
				_, err := core.DirectUploadResumable(p, cl, part, size, "", ck)
				return err
			})
		default:
			dc := e.detourFor(job.Client, r.Via)
			up = multipath.UploaderFunc(func(p *simproc.Proc, part string, size float64, ck *core.Checkpoint) error {
				_, err := dc.UploadResumable(p, job.Provider, part, size, "", ck)
				return err
			})
		}
		paths = append(paths, multipath.Path{ID: i, Route: r, Upload: up})
	}

	fl := e.w.Graph.Fluid()
	env := multipath.Env{
		Trace: e.w.Trace,
		Usable: func(r core.Route, existing bool) bool {
			if !e.routeUsable(job.Client, job.Provider, r, existing) {
				return false
			}
			// Existing work may finish through a converging session (it is
			// already committed to the path); new claims drain until the
			// plane settles.
			return existing || !e.routeConverging(job.Client, job.Provider, r)
		},
		Abort: func(path multipath.Path) {
			scope := multipath.FlowScope(job.Name)
			for _, prefix := range flowPrefixes(scope, job.Client, job.Provider, path.Route) {
				fl.KillFlowsLabeled(prefix)
			}
		},
		Commit: func(p *simproc.Proc, parts []string) error {
			// Every part is already durable server-side; only this one
			// control-plane call races the routing plane. A withdraw window
			// opening between the last chunk and the compose must not fail
			// the whole stripe, so wait out transient route loss with a
			// capped exponential and re-issue — compose is idempotent.
			var err error
			backoff := 2.0
			for attempt := 0; attempt < composeAttempts; attempt++ {
				if attempt > 0 {
					p.Sleep(backoff)
					if backoff *= 2; backoff > composeBackoffCap {
						backoff = composeBackoffCap
					}
				}
				var info sdk.FileInfo
				info, err = e.direct(job.Client, job.Provider).Compose(p, job.Name, parts, job.MD5)
				if err != nil {
					continue
				}
				if job.MD5 != "" && info.MD5 != "" && info.MD5 != job.MD5 {
					// An integrity mismatch is a durable property of the
					// composed object, not a routing transient: fail now.
					return fmt.Errorf("sched: composed %q has digest %s, want %s: %w",
						job.Name, info.MD5, job.MD5, core.ErrIntegrity)
				}
				return nil
			}
			return err
		},
	}
	if h := e.health; h != nil {
		// Arm the per-lane stall watchdog with the health layer's adaptive
		// budgets, so a gray lane loses its chunk to a healthy one instead
		// of dragging the stripe's tail.
		env.Budget = func(r core.Route, size float64) float64 {
			return h.Budget(health.ClassRoute, r.String(), size)
		}
	}

	spec := multipath.Spec{Name: job.Name, Size: job.Size, MD5: job.MD5, Chunk: chunk}
	var rep multipath.Report
	var err error
	e.w.RunWorkload("sched-mp:"+job.Name, func(p *simproc.Proc) {
		rep, err = multipath.Run(p, spec, paths, env)
	})
	if err != nil {
		return rep, classifyExecErr(fmt.Errorf("sched: multipath execute %s: %w", job.Name, err))
	}
	return rep, nil
}
