package experiments

import (
	"fmt"
	"io"
	"strings"

	"detournet/internal/core"
	"detournet/internal/fileutil"
	"detournet/internal/fluid"
	"detournet/internal/measure"
	"detournet/internal/overlay"
	"detournet/internal/scenario"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
	"detournet/internal/tcpmodel"
	"detournet/internal/topology"
	"detournet/internal/transport"
)

// WriteStudies renders every study beyond the paper's figures and
// tables, in order, each in a world seeded from o.Seed and separated by
// a blank line: the PacificWave sensitivity sweep, DTN contention, the
// workload replay and the download direction for every client, then the
// ablations — store-and-forward against the pipelined relay, provider
// chunk size, the k-hop overlay — and the Vancouver provider POP.
// `detourbench -experiment studies` prints it, and the reproduction
// report embeds it.
func WriteStudies(w io.Writer, o Options) error {
	var blocks []string
	blocks = append(blocks, FormatSensitivity(SensitivityPacificWave(o, []float64{0.6, 1.25, 2.5, 4, 6, 8})))
	cont, err := ContentionStudy(o, [][]string{
		{scenario.UBC},
		{scenario.UBC, scenario.Purdue},
		{scenario.UBC, scenario.Purdue, scenario.UCLA},
	})
	if err != nil {
		return err
	}
	blocks = append(blocks, FormatContention(cont))
	for _, c := range scenario.Clients {
		wl, err := WorkloadStudy(o, c, scenario.GoogleDrive, 12)
		if err != nil {
			return err
		}
		blocks = append(blocks, FormatWorkloadStudy(c, scenario.GoogleDrive, wl))
	}
	for _, c := range scenario.Clients {
		blocks = append(blocks, downloadStudy(o, c))
	}
	for _, study := range []func(int64) (string, error){relayStudy, chunkStudy, kHopStudy, popStudy} {
		out, err := study(o.Seed)
		if err != nil {
			return err
		}
		blocks = append(blocks, out+"\n")
	}
	_, err = io.WriteString(w, strings.Join(blocks, "\n"))
	return err
}

// downloadStudy measures the reverse direction, Google Drive to client:
// the operation the paper's SDKs expose but its evaluation leaves
// unmeasured.
func downloadStudy(o Options, client string) string {
	w := scenario.Build(o.Seed)
	g := measure.RunGrid(w, measure.GridSpec{
		Client: client, Provider: scenario.GoogleDrive,
		Direction: measure.Download,
		SizesMB:   o.SizesMB, Runs: o.Runs, Keep: o.Keep, Seed: o.Seed,
	})
	return fmt.Sprintf("Download times %s <- GoogleDrive\n%s", client, g.FormatTable())
}

// runWorkload runs fn as w's workload, closes w and returns fn's error.
func runWorkload(w *scenario.World, fn func(p *simproc.Proc) error) error {
	defer w.Close()
	var err error
	w.RunWorkload("study", func(p *simproc.Proc) { err = fn(p) })
	return err
}

// relayStudy compares the paper's store-and-forward detour with the
// pipelined relay it leaves as future work, UBC → Google Drive at
// 100 MB.
func relayStudy(seed int64) (string, error) {
	var saf, pipe core.Report
	w := scenario.Build(seed)
	err := runWorkload(w, func(p *simproc.Proc) error {
		dc := w.NewDetourClient(scenario.UBC, scenario.UAlberta)
		var err error
		if saf, err = dc.Upload(p, scenario.GoogleDrive, "saf.bin", 100*fileutil.MB, ""); err != nil {
			return err
		}
		pipe, err = dc.UploadPipelined(p, scenario.GoogleDrive, "pipe.bin", 100*fileutil.MB, "", 4<<20)
		return err
	})
	return fmt.Sprintf("Ablation: store-and-forward %.1f s vs pipelined %.1f s (UBC->GoogleDrive 100MB, %.2fx)",
		saf.Total, pipe.Total, saf.Total/pipe.Total), err
}

// chunkStudy sweeps the provider upload chunk size on the fast,
// long-RTT UMich → Google Drive path, where each chunk's round trips
// are a visible fraction of the transfer.
func chunkStudy(seed int64) (string, error) {
	out := "Ablation: UMich->GoogleDrive 60MB upload time by chunk size:"
	for _, chunk := range []float64{1 << 20, 4 << 20, 8 << 20, 16 << 20} {
		var sec float64
		w := scenario.Build(seed)
		err := runWorkload(w, func(p *simproc.Proc) error {
			client := w.NewSDKClientWithChunk(scenario.UMich, scenario.GoogleDrive, chunk)
			defer client.Close()
			t0 := p.Now()
			_, err := client.Upload(p, "chunk.bin", 60*fileutil.MB, "")
			sec = float64(p.Now() - t0)
			return err
		})
		if err != nil {
			return "", err
		}
		out += fmt.Sprintf("  %dMiB=%.1fs", int(chunk)>>20, sec)
	}
	return out, nil
}

// kHopStudy sends 30 MB over overlay detours of at most 0, 1 and 2
// intermediate hops, on a four-host mesh where only the two-hop chain
// a→m1→m2→d is fast: the generalization beyond the paper's single
// extra hop. The mesh has no randomness, so the seed does not enter.
func kHopStudy(int64) (string, error) {
	var times [3]float64
	for k := range times {
		eng := simclock.NewEngine()
		r := simproc.New(eng)
		g := topology.New(fluid.New(eng))
		hosts := []string{"a", "m1", "m2", "d"}
		for _, h := range hosts {
			g.MustAddNode(&topology.Node{Name: h, Kind: topology.Host, RespondsICMP: true})
		}
		fast := topology.LinkSpec{CapacityBps: 8e6, DelaySec: 0.005}
		slow := topology.LinkSpec{CapacityBps: 1e6, DelaySec: 0.004}
		g.MustConnect("a", "m1", fast)
		g.MustConnect("m1", "m2", fast)
		g.MustConnect("m2", "d", fast)
		g.MustConnect("a", "d", slow)
		g.MustConnect("a", "m2", slow)
		g.MustConnect("m1", "d", slow)
		tn := transport.NewNet(g, r, tcpmodel.Params{RwndBytes: 4 << 20})
		for _, h := range hosts {
			overlay.NewDaemon(tn, h).Start()
		}
		mesh := overlay.NewMesh(tn, "a", hosts)
		mesh.MaxIntermediates = k
		err := fmt.Errorf("experiments: k-hop send with k=%d did not finish", k)
		r.Go("khop", func(p *simproc.Proc) {
			if err = mesh.ProbeAll(p); err == nil {
				_, times[k], err = mesh.Send(p, "a", "d", 30e6)
			}
		})
		r.RunUntil(simclock.Time(1e6))
		r.Close()
		if err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("Ablation: overlay 30MB a->d with k intermediates: k=0 %.1fs, k=1 %.1fs, k=2 %.1fs",
		times[0], times[1], times[2]), nil
}

// popStudy measures the paper's "providers may add additional POPs or
// gateways" remedy: UBC's 100 MB upload to Google Drive direct, via the
// UAlberta detour, and through a Google edge POP on the Vancouver
// exchange.
func popStudy(seed int64) (string, error) {
	var direct, detour, viaPOP core.Report
	w := scenario.Build(seed, scenario.WithGoogleVancouverPOP())
	w.StartGooglePOP()
	err := runWorkload(w, func(p *simproc.Proc) error {
		c := w.NewSDKClient(scenario.UBC, scenario.GoogleDrive)
		var err error
		direct, err = core.DirectUpload(p, c, "a.bin", 100*fileutil.MB, "")
		c.Close()
		if err != nil {
			return err
		}
		if detour, err = w.NewDetourClient(scenario.UBC, scenario.UAlberta).
			Upload(p, scenario.GoogleDrive, "b.bin", 100*fileutil.MB, ""); err != nil {
			return err
		}
		pc := w.NewSDKClientVia(scenario.UBC, scenario.GooglePOPVancouver)
		defer pc.Close()
		viaPOP, err = core.DirectUpload(p, pc, "c.bin", 100*fileutil.MB, "")
		return err
	})
	return fmt.Sprintf("Extension: UBC->GoogleDrive 100MB — direct %.1f s, UAlberta detour %.1f s, Vancouver POP %.1f s",
		direct.Total, detour.Total, viaPOP.Total), err
}
