package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"detournet/internal/core"
	"detournet/internal/detourselect"
	"detournet/internal/scenario"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
	"detournet/internal/workload"
)

// The workload study extends the paper's per-size grids to a realistic
// job mix: it replays a personal-cloud-storage upload workload through
// three policies — always direct, always the best static detour, and
// size-aware adaptive selection — and reports per-policy makespan and
// mean transfer time. This quantifies the paper's claim that routing
// inefficiencies "have a real impact on many users" beyond the
// single-file benchmarks.

// WorkloadPolicy names a routing policy for the study.
type WorkloadPolicy string

const (
	// PolicyDirect uploads every job directly.
	PolicyDirect WorkloadPolicy = "direct"
	// PolicyDetour uploads every job via one fixed DTN.
	PolicyDetour WorkloadPolicy = "detour"
	// PolicyAdaptive picks per job-size using probe-based predictions.
	PolicyAdaptive WorkloadPolicy = "adaptive"
)

// WorkloadResult is one policy's outcome.
type WorkloadResult struct {
	Policy WorkloadPolicy
	// Via is the DTN used by PolicyDetour.
	Via string
	// Makespan is the virtual time from first arrival to last completion.
	Makespan float64
	// MeanTransfer is the mean per-job transfer time.
	MeanTransfer float64
	// Transfers holds per-job transfer seconds, in job order.
	Transfers []float64
	// DetourJobs counts jobs routed via a DTN.
	DetourJobs int
}

// WorkloadStudy replays n jobs of the personal-cloud mix from client to
// provider under each policy. Each policy runs in its own
// identically-seeded world, so the comparison is paired.
func WorkloadStudy(o Options, client, provider string, n int) ([]WorkloadResult, error) {
	jobs := workload.Generate(n, workload.PersonalCloud(),
		workload.Poisson{RatePerSec: 0.02}, rand.New(rand.NewSource(o.Seed)))

	var results []WorkloadResult
	for _, policy := range []WorkloadPolicy{PolicyDirect, PolicyDetour, PolicyAdaptive} {
		res, err := runWorkloadPolicy(o, client, provider, jobs, policy)
		if err != nil {
			return nil, fmt.Errorf("experiments: workload policy %s: %w", policy, err)
		}
		results = append(results, res)
	}
	return results, nil
}

func runWorkloadPolicy(o Options, client, provider string, jobs []workload.Job, policy WorkloadPolicy) (WorkloadResult, error) {
	w := scenario.Build(pairSeed(o, client, provider))
	defer w.Close()
	res := WorkloadResult{Policy: policy}
	var runErr error
	w.RunWorkload("workload-"+string(policy), func(p *simproc.Proc) {
		direct := w.NewSDKClient(client, provider)
		defer direct.Close()
		detours := map[string]*core.DetourClient{}
		for _, dtn := range scenario.DTNs {
			detours[dtn] = w.NewDetourClient(client, dtn)
		}

		// Policy setup.
		routeFor := func(size float64) core.Route { return core.DirectRoute }
		switch policy {
		case PolicyDetour:
			// Use the paper's method: one probing pass picks the static DTN.
			sel := detourselect.NewSelector()
			route, _, err := sel.Choose(p, direct, detours, provider, 60e6)
			if err != nil {
				runErr = err
				return
			}
			if route.Kind == core.Direct {
				// No detour wins here; the static-detour policy still
				// needs one — take the best detour prediction.
				route = core.ViaRoute(scenario.DTNs[0])
			}
			res.Via = route.Via
			routeFor = func(float64) core.Route { return route }
		case PolicyAdaptive:
			// Probe once at two sizes and fit a linear model per route,
			// then pick per job size.
			sel := detourselect.NewSelector()
			_, small, err := sel.Choose(p, direct, detours, provider, 1e6)
			if err != nil {
				runErr = err
				return
			}
			_, big, err := sel.Choose(p, direct, detours, provider, 64e6)
			if err != nil {
				runErr = err
				return
			}
			type model struct{ a, b float64 } // seconds = a + b*size
			models := map[core.Route]model{}
			for _, ps := range small {
				for _, pb := range big {
					if ps.Route == pb.Route {
						b := (pb.Seconds - ps.Seconds) / (64e6 - 1e6)
						models[ps.Route] = model{a: ps.Seconds - b*1e6, b: b}
					}
				}
			}
			routeFor = func(size float64) core.Route {
				best := core.DirectRoute
				bestT := 0.0
				first := true
				for r, m := range models {
					t := m.a + m.b*size
					if first || t < bestT {
						best, bestT = r, t
						first = false
					}
				}
				return best
			}
		}

		start := p.Now()
		for i, job := range jobs {
			// Honor arrival times: wait until the job arrives (jobs queue
			// behind slow transfers otherwise).
			arrival := start + simclock.Time(job.At)
			if p.Now() < arrival {
				p.Sleep(float64(arrival - p.Now()))
			}
			route := routeFor(job.Size)
			if route.Kind == core.Detour {
				res.DetourJobs++
			}
			rep, err := core.Upload(p, route, direct, detours, provider,
				fmt.Sprintf("%s-%d-%s", policy, i, job.Name), job.Size, "")
			if err != nil {
				runErr = err
				return
			}
			res.Transfers = append(res.Transfers, rep.Total)
		}
		res.Makespan = float64(p.Now() - start)
	})
	if runErr != nil {
		return WorkloadResult{}, runErr
	}
	var sum float64
	for _, t := range res.Transfers {
		sum += t
	}
	if len(res.Transfers) > 0 {
		res.MeanTransfer = sum / float64(len(res.Transfers))
	}
	return res, nil
}

// FormatWorkloadStudy renders the study as a table.
func FormatWorkloadStudy(client, provider string, results []WorkloadResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Workload study: %s -> %s (%d jobs, personal-cloud mix)\n",
		client, provider, len(results[0].Transfers))
	fmt.Fprintf(&b, "%-10s %-12s %12s %14s %12s\n", "policy", "via", "makespan(s)", "mean xfer(s)", "detour jobs")
	for _, r := range results {
		fmt.Fprintf(&b, "%-10s %-12s %12.1f %14.2f %12d\n",
			r.Policy, r.Via, r.Makespan, r.MeanTransfer, r.DetourJobs)
	}
	return b.String()
}
