// Pressure mode: storage made finite everywhere the seed world was
// bottomless — each DTN a bounded staging disk, Google Drive a finite
// account quota, the control journal a bounded device — under
// faults.PressureSchedule: a co-tenant filling the staging volumes, an
// abandoned client draining the quota, the journal volume filling
// mid-run. The stack arm runs the full mitigation ladder: LRU eviction
// of stale staged state, spill-aware placement (route election reads
// DTN headroom), provider-session reclamation on the first 507, spill
// to alternate providers, and journal degradation to in-memory folding.
// The control arm is the pre-mitigation scheduler: no eviction (a full
// disk stays full), no capacity oracle (routes are elected blind), a
// reclaim pass that frees nothing, and no alternate providers (quota
// exhaustion parks the job).

package replay

import (
	"fmt"
	"io"

	"detournet/internal/faults"
	"detournet/internal/journal"
	"detournet/internal/scenario"
	"detournet/internal/sched"
)

// Pressure-world sizing. The fleet commits 60 x 60 MB = 3.6 GB against
// a 2.4 GB Google Drive quota with 600 MB drained by an abandoned
// session for most of the run, so the last third of the fleet can only
// finish by reclaiming the drain and spilling to the alternate
// providers. Staging disks hold ten transfers each; staged copies are
// never deleted after success, so the fleet overruns them early and
// only eviction keeps detours admitting.
const (
	pressureJobs       = 60
	pressureStagingCap = 600e6
	pressureQuota      = 2.4e9
	pressureAltQuota   = 3e9
	pressureJournalCap = 256 << 10
)

// noReclaimExec is the ablation's executor: the full SimExecutor minus
// quota reclamation. Shadowing ReclaimQuota with a no-op models the
// pre-mitigation scheduler, whose 507 handling never asked the
// provider to GC abandoned sessions.
type noReclaimExec struct{ *sched.SimExecutor }

func (e noReclaimExec) ReclaimQuota(provider string) float64 { return 0 }

// mustJournal opens a control journal on dev, replaying whatever the
// device already holds.
func mustJournal(dev journal.Device) (*sched.ControlJournal, *sched.Recovered) {
	cj, rec, err := sched.NewControlJournal(dev)
	if err != nil {
		panic(fmt.Sprintf("replay: journal open: %v", err))
	}
	return cj, rec
}

// pressureSpec is one arm of the storage-pressure replay.
func pressureSpec(seed int64, stack bool) Spec {
	return Spec{
		Seed:   seed,
		Faults: faults.PressureSchedule(),
		// The cache TTL outlives the replay for the same reason as
		// grayfail's: a short TTL would let either arm escape a pressure
		// window by re-probe luck instead of through the mitigation
		// under test.
		Config: sched.Config{MaxAttempts: 4, CacheTTL: 3600},
		Setup: func(e *Env) {
			// Both arms get identical bounds — the delta under test is the
			// mitigation, not the hardware.
			for _, dtn := range scenario.DTNs {
				d := e.World.Daemons[dtn]
				d.Capacity = pressureStagingCap
				d.EvictStale = stack
			}
			for _, name := range scenario.ProviderNames {
				if name == scenario.GoogleDrive {
					e.World.Services[name].Store.Quota = pressureQuota
				} else {
					e.World.Services[name].Store.Quota = pressureAltQuota
				}
			}
			dev := journal.NewMemDevice()
			dev.Capacity = pressureJournalCap
			cj, _ := mustJournal(dev)
			e.Injector.SetCrashControl(&faults.CrashControl{JournalENOSPC: cj.JournalENOSPC})
			e.Config.Journal = cj
			if stack {
				e.Config.Capacity = e.Exec
				armHealth(e)
			} else {
				e.Config.Executor = noReclaimExec{e.Exec}
			}
		},
		// The grayfail fleet's shape — except this time the detour DTNs'
		// disks and the destination account are what runs out, not their
		// speed. The stack arm may spill overflow onto the other two
		// providers; the ablation has nowhere to go.
		Fleet: fleet(pressureJobs, func(i int) sched.Job {
			j := sched.Job{
				Tenant: "pressure", Client: scenario.UBC,
				Provider: scenario.GoogleDrive,
				Name:     fmt.Sprintf("pressure-%03d.bin", i), Size: 60e6,
			}
			if stack {
				j.AltProviders = []string{scenario.Dropbox, scenario.OneDrive}
			}
			return j
		}),
	}
}

// WritePressure replays the storage-exhaustion schedule without and
// with the mitigation ladder and writes the report `detourbench
// -experiment pressure` prints.
func WritePressure(out io.Writer, seed int64) {
	control, stack := Run(pressureSpec(seed, false)), Run(pressureSpec(seed, true))
	line := func(label string, o Outcome) {
		st := o.Stats
		fmt.Fprintf(out, "%-8s %3d done %3d failed | quota: %d fails %d reclaims %d spills %d parked | journal: degraded=%v saves=%d dropped=%d | goodput %.2f MB/s | %.0f virtual s\n",
			label, st.Done, st.Failed,
			st.QuotaFailures, st.QuotaReclaims, st.ProviderSpills, st.QuotaParks,
			st.JournalDegraded, st.JournalENOSPCSaves, st.JournalDropped,
			o.Goodput()/1e6, o.VirtualSeconds)
	}
	fmt.Fprintf(out, "Pressure: %d transfers vs storage exhaustion (%d fault transitions: staging disks fill, quota drains, journal device fills)\n",
		len(stack.Results), len(stack.Transitions))
	line("control", control)
	line("stack", stack)

	fmt.Fprintf(out, "goodput %.2fx the no-mitigation ablation\n", speedup(control, stack))
	writeStorage(out, stack)
}

// writeStorage renders the stack arm's final storage state: each staging
// disk, each provider's quota ledger, and the health log's warnings.
func writeStorage(out io.Writer, stack Outcome) {
	fmt.Fprintln(out, "staging disks (stack arm):")
	for _, dtn := range scenario.DTNs {
		sn := stack.World.Daemons[dtn].Stats()
		fmt.Fprintf(out, "  %-9s cap %4.0f MB used %4.0f MB headroom %4.0f MB | %d staged %d partials | %d evictions (%.0f MB) %d orphans swept\n",
			dtn, sn.Capacity/1e6, sn.Used/1e6, sn.Headroom/1e6,
			sn.Staged, sn.Partials, sn.Evictions, sn.EvictedBytes/1e6, sn.OrphansSwept)
	}
	fmt.Fprintln(out, "provider quota (stack arm):")
	for _, name := range scenario.ProviderNames {
		svc := stack.World.Services[name]
		fmt.Fprintf(out, "  %-12s quota %4.0f MB used %4.0f MB pending %4.0f MB | %d sessions reclaimed\n",
			name, svc.Store.Quota/1e6, svc.Store.Used()/1e6, svc.PendingBytes()/1e6, svc.SessionsReclaimed)
	}
	fmt.Fprintln(out, "health transitions:")
	writeLines(out, stack.Config.Health.Transitions())
}
