// Multipath mode: every site/provider pair measured over each single
// route (direct, via each DTN) and then re-run striped across direct +
// detours through the scheduler's JobMultipath mode — all in one
// simulation, so every measurement sees an idle network and the same
// seeded topology — plus a churn leg that drives one large striped
// transfer into the reconvergence storm.
//
// The paper's geometry predicts both outcomes: sites whose direct and
// detour paths bottleneck on disjoint links (UBC) gain nearly the sum
// of the lanes, while sites capped by a shared last-mile or access link
// (UCLA, Purdue) cannot gain at all — striping there must merely not
// lose (the ≤1.05× guard).

package replay

import (
	"fmt"
	"io"
	"sort"

	"detournet/internal/core"
	"detournet/internal/faults"
	"detournet/internal/scenario"
	"detournet/internal/sched"
)

// Pair compares one (client, provider) pair across modes.
type Pair struct {
	Client, Provider string
	// Singles are the per-route baselines, in scenario.Routes() order.
	Singles []sched.Result
	// BestRoute/BestSeconds is the fastest successful baseline.
	BestRoute   string
	BestSeconds float64
	// Striped is the JobMultipath result (Multipath report attached).
	Striped sched.Result
	// Speedup is BestSeconds / striped seconds (>1 = striping won).
	Speedup float64
}

// baselines measures a pair's single-route baselines the first time
// the scheduler plans the pair — on the idle network, right before that
// pair's striped run — driven straight through the executor: no
// queueing, no planning, pure path capacity.
type baselines struct {
	*sched.SimExecutor
	singles map[[2]string][]sched.Result
}

func (b *baselines) Plan(client, provider string, size float64) (core.Route, []core.Route, error) {
	k := [2]string{client, provider}
	if _, ok := b.singles[k]; !ok {
		for ri, route := range scenario.Routes() {
			j := sched.Job{
				Tenant: "mp", Client: client, Provider: provider,
				Name: fmt.Sprintf("base-%s-%s-%d.bin", client, provider, ri), Size: size,
			}
			sec, err := b.Execute(j, route)
			b.singles[k] = append(b.singles[k], sched.Result{Job: j, Route: route, Seconds: sec, Err: err})
		}
	}
	return b.SimExecutor.Plan(client, provider, size)
}

// Transfer sizes: 96 MB per compared pair is 12 default chunks, enough
// for every lane to carry several; the churn leg's one transfer is
// long enough that the storm's first withdraw lands mid-flight.
const (
	multipathSize      = 96e6
	multipathChurnSize = 480e6
)

// multipathSpec is the striped fleet, one job per pair; base collects
// each pair's single-route baselines as the run plans it.
func multipathSpec(seed int64) (sp Spec, jobs []sched.Job, base *baselines) {
	for _, client := range scenario.Clients {
		for _, provider := range scenario.ProviderNames {
			jobs = append(jobs, sched.Job{
				Tenant: "mp", Client: client, Provider: provider,
				Name: fmt.Sprintf("mp-%s-%s.bin", client, provider), Size: multipathSize,
				Mode: sched.JobMultipath,
			})
		}
	}
	base = &baselines{singles: make(map[[2]string][]sched.Result)}
	return Spec{
		Seed: seed,
		Setup: func(e *Env) {
			base.SimExecutor = e.Exec
			e.Config.Planner = base
		},
		Fleet: fleet(len(jobs), func(i int) sched.Job { return jobs[i] }),
	}, jobs, base
}

// Multipath runs the striped-vs-single comparison over every pair.
func Multipath(seed int64) (Outcome, []Pair) {
	sp, jobs, base := multipathSpec(seed)
	o := Run(sp)
	striped := make(map[string]sched.Result, len(o.Results))
	for _, r := range o.Results {
		striped[r.Job.Name] = r
	}
	pairs := make([]Pair, 0, len(jobs))
	for _, j := range jobs {
		pr := Pair{
			Client: j.Client, Provider: j.Provider,
			Singles: base.singles[[2]string{j.Client, j.Provider}],
			Striped: striped[j.Name],
		}
		for _, leg := range pr.Singles {
			if leg.Err == nil && (pr.BestSeconds == 0 || leg.Seconds < pr.BestSeconds) {
				pr.BestRoute, pr.BestSeconds = leg.Route.String(), leg.Seconds
			}
		}
		if pr.Striped.Err == nil && pr.Striped.Seconds > 0 && pr.BestSeconds > 0 {
			pr.Speedup = pr.BestSeconds / pr.Striped.Seconds
		}
		pairs = append(pairs, pr)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Client != pairs[j].Client {
			return pairs[i].Client < pairs[j].Client
		}
		return pairs[i].Provider < pairs[j].Provider
	})
	return o, pairs
}

// Speedups returns the largest and smallest per-pair speedup — the
// smallest is the number the ≤1.05×-worse guard is about.
func Speedups(pairs []Pair) (best, worst float64) {
	for i, pr := range pairs {
		if pr.Speedup > best {
			best = pr.Speedup
		}
		if i == 0 || pr.Speedup < worst {
			worst = pr.Speedup
		}
	}
	return best, worst
}

// MultipathSanity guards against a silent route regression: every
// striped run must actually have used more than one lane.
func MultipathSanity(pairs []Pair) error {
	for _, pr := range pairs {
		if pr.Striped.Err != nil {
			continue
		}
		if pr.Striped.Multipath == nil {
			return fmt.Errorf("pair %s->%s degraded to single-path", pr.Client, pr.Provider)
		}
		used := 0
		for _, p := range pr.Striped.Multipath.Paths {
			if len(p.Chunks) > 0 {
				used++
			}
		}
		if used < 2 {
			return fmt.Errorf("pair %s->%s used %d lanes", pr.Client, pr.Provider, used)
		}
	}
	return nil
}

// MultipathChurn drives one large striped UBC->GoogleDrive transfer
// into the reconvergence storm — the first CANARIE~Google withdraw
// lands at t=60, mid-transfer.
func MultipathChurn(seed int64) Outcome {
	return Run(Spec{
		Seed:   seed,
		World:  []scenario.Option{scenario.WithDynamicRouting()},
		Faults: faults.ChurnSchedule(),
		Fleet: fleet(1, func(int) sched.Job {
			return sched.Job{
				Tenant: "mp-churn", Client: scenario.UBC,
				Provider: scenario.GoogleDrive,
				Name:     "mp-churn.bin", Size: multipathChurnSize, Mode: sched.JobMultipath,
			}
		}),
	})
}

// WithinResendBound reports whether every path of a striped result kept
// its re-sent bytes within the promise: at most one chunk per failure
// the churn inflicted on that path (a path that never failed must have
// re-sent nothing).
func WithinResendBound(r sched.Result) bool {
	rep := r.Multipath
	if rep == nil {
		return false
	}
	for _, pr := range rep.Paths {
		if pr.Rewritten > rep.Chunk*float64(pr.Failures) {
			return false
		}
	}
	return true
}

// WriteMultipath runs the comparison and the churn leg and writes the
// report `detourbench -experiment multipath` prints. The error is
// MultipathSanity's.
func WriteMultipath(out io.Writer, seed int64) error {
	o, pairs := Multipath(seed)
	writeMultipathReport(out, o, pairs, MultipathChurn(seed))
	return MultipathSanity(pairs)
}

func writeMultipathReport(out io.Writer, o Outcome, pairs []Pair, churn Outcome) {
	size := multipathSize
	fmt.Fprintf(out, "Multipath: %d site/provider pairs, %.0f MB each, striped across direct + detours\n",
		len(pairs), size/1e6)
	for _, pr := range pairs {
		fmt.Fprintf(out, "%s -> %s\n", pr.Client, pr.Provider)
		for _, leg := range pr.Singles {
			if leg.Err != nil {
				fmt.Fprintf(out, "  single %-16s FAILED: %v\n", leg.Route, leg.Err)
				continue
			}
			fmt.Fprintf(out, "  single %-16s %7.1fs  %6.2f MB/s\n",
				leg.Route, leg.Seconds, size/leg.Seconds/1e6)
		}
		st := pr.Striped
		if st.Err != nil {
			fmt.Fprintf(out, "  striped FAILED: %v\n", st.Err)
			continue
		}
		fmt.Fprintf(out, "  striped %2d paths %6.1fs  %6.2f MB/s  %.2fx best single (%s)\n",
			len(st.Multipath.Paths), st.Seconds, size/st.Seconds/1e6, pr.Speedup, pr.BestRoute)
		for _, p := range st.Multipath.Paths {
			fmt.Fprintf(out, "    path %d %-16s %2d chunks  %6.1f MB  %6.2f MB/s\n",
				p.ID, "["+p.Route+"]", len(p.Chunks), p.Bytes/1e6, p.Rate()/1e6)
		}
	}
	best, worst := Speedups(pairs)
	fmt.Fprintf(out, "best speedup %.2fx, worst %.2fx (guard: never below 0.95x)\n", best, worst)
	fmt.Fprintf(out, "scheduler: %d striped jobs, %d hedged chunks, %d resent chunks, %.1f MB duplicated, fairness via per-path reports\n",
		o.Stats.MultipathJobs, o.Stats.MultipathHedged, o.Stats.MultipathResent,
		o.Stats.MultipathDuplicateBytes/1e6)

	fmt.Fprintln(out, "churn leg: one striped transfer vs the reconvergence storm")
	var res sched.Result
	if len(churn.Results) > 0 {
		res = churn.Results[0]
	}
	if res.Err != nil {
		fmt.Fprintf(out, "  FAILED: %v\n", res.Err)
		return
	}
	rep := res.Multipath
	if rep == nil {
		fmt.Fprintln(out, "  degraded to single-path")
		return
	}
	fmt.Fprintf(out, "  %.0f MB in %.1fs (%.2f MB/s), %d resent chunks, %.1f MB re-sent\n",
		rep.Size/1e6, rep.Seconds, rep.Rate()/1e6, rep.ResentChunks, res.Rewritten/1e6)
	for _, p := range rep.Paths {
		fmt.Fprintf(out, "  path %d %-16s %2d chunks  %2d fails  %2d drains  %6.1f MB re-sent\n",
			p.ID, "["+p.Route+"]", len(p.Chunks), p.Failures, p.Drains, p.Rewritten/1e6)
	}
	fmt.Fprintf(out, "  re-sent within one-chunk-per-failure bound per path: %v\n", WithinResendBound(res))
}
