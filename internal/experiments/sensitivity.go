package experiments

import (
	"fmt"
	"strings"

	"detournet/internal/core"
	"detournet/internal/scenario"
	"detournet/internal/simproc"
)

// Sensitivity analysis: the paper repeatedly calls its inefficiencies
// "transitory". These experiments quantify the boundary — how much the
// bottleneck would have to improve before the detour stops paying — and
// how the detour scales when several sites share one DTN.

// SensitivityPoint is one sweep sample.
type SensitivityPoint struct {
	// PacificWaveMBps is the hand-off capacity for this sample.
	PacificWaveMBps float64
	// DirectSeconds and DetourSeconds are 100 MB UBC→Google Drive times.
	DirectSeconds float64
	DetourSeconds float64
}

// DetourWins reports whether the UAlberta detour still beats direct.
func (s SensitivityPoint) DetourWins() bool { return s.DetourSeconds < s.DirectSeconds }

// SensitivityPacificWave sweeps the capacity of the rate-limited
// vncv1→PacificWave hand-off and measures the UBC→Google Drive 100 MB
// upload both ways at each point. The crossover capacity is where the
// paper's headline detour stops winning — i.e. how much fixing the one
// bad link would have been worth.
func SensitivityPacificWave(o Options, capsMBps []float64) []SensitivityPoint {
	out := make([]SensitivityPoint, 0, len(capsMBps))
	for _, mbps := range capsMBps {
		w := scenario.Build(o.Seed, scenario.WithLinkCapacity("vncv1", "pacificwave", mbps))
		pt := SensitivityPoint{PacificWaveMBps: mbps}
		w.RunWorkload("sensitivity", func(p *simproc.Proc) {
			client := w.NewSDKClient(scenario.UBC, scenario.GoogleDrive)
			defer client.Close()
			rep, err := core.DirectUpload(p, client, "direct.bin", 100e6, "")
			if err != nil {
				panic(err)
			}
			pt.DirectSeconds = rep.Total
			dc := w.NewDetourClient(scenario.UBC, scenario.UAlberta)
			rep, err = dc.Upload(p, scenario.GoogleDrive, "detour.bin", 100e6, "")
			if err != nil {
				panic(err)
			}
			pt.DetourSeconds = rep.Total
		})
		w.Close()
		out = append(out, pt)
	}
	return out
}

// FormatSensitivity renders the sweep with the crossover marked.
func FormatSensitivity(points []SensitivityPoint) string {
	var b strings.Builder
	b.WriteString("Sensitivity: UBC->GoogleDrive 100MB vs PacificWave hand-off capacity\n")
	fmt.Fprintf(&b, "%12s %12s %12s %10s\n", "cap (MB/s)", "direct (s)", "detour (s)", "winner")
	for _, pt := range points {
		winner := "direct"
		if pt.DetourWins() {
			winner = "detour"
		}
		fmt.Fprintf(&b, "%12.2f %12.1f %12.1f %10s\n",
			pt.PacificWaveMBps, pt.DirectSeconds, pt.DetourSeconds, winner)
	}
	return b.String()
}

// ContentionResult reports one DTN-contention sample.
type ContentionResult struct {
	// Clients lists the sites uploading via the shared DTN concurrently.
	Clients []string
	// Seconds holds each client's detour transfer time, same order.
	Seconds []float64
}

// ContentionStudy measures what happens when several sites relay
// through the UAlberta DTN at once — the deployment question the paper's
// "universities can provide routing detours" proposal raises. Each
// sample starts all k transfers simultaneously (40 MB each).
func ContentionStudy(o Options, clientSets [][]string) ([]ContentionResult, error) {
	var out []ContentionResult
	for _, clients := range clientSets {
		w := scenario.Build(o.Seed)
		res := ContentionResult{Clients: clients, Seconds: make([]float64, len(clients))}
		var firstErr error
		w.RunWorkload("contention", func(p *simproc.Proc) {
			futs := make([]*simproc.Future[float64], len(clients))
			for i, client := range clients {
				i, client := i, client
				fut := simproc.NewFuture[float64](w.Runner)
				futs[i] = fut
				w.Runner.Go("xfer-"+client, func(cp *simproc.Proc) {
					dc := w.NewDetourClient(client, scenario.UAlberta)
					rep, err := dc.Upload(cp, scenario.GoogleDrive,
						fmt.Sprintf("cont-%d.bin", i), 40e6, "")
					if err != nil {
						if firstErr == nil {
							firstErr = err
						}
						fut.Set(0)
						return
					}
					fut.Set(rep.Total)
				})
			}
			for i, fut := range futs {
				res.Seconds[i] = simproc.Await(p, fut)
			}
		})
		w.Close()
		if firstErr != nil {
			return nil, firstErr
		}
		out = append(out, res)
	}
	return out, nil
}

// FormatContention renders the study.
func FormatContention(results []ContentionResult) string {
	var b strings.Builder
	b.WriteString("Contention: concurrent 40MB detours via the UAlberta DTN\n")
	for _, r := range results {
		fmt.Fprintf(&b, "  %d client(s):", len(r.Clients))
		for i, c := range r.Clients {
			fmt.Fprintf(&b, "  %s=%.1fs", c, r.Seconds[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}
