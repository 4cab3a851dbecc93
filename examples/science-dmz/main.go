// Science DMZ: the paper's discussion section points at Science DMZ
// (Dart et al., SC'13) as the sibling idea to routing detours — DTNs
// that bypass the campus firewall rather than a WAN bottleneck. This
// example builds a campus where the border firewall inspects every
// connection at 1 MB/s, places a DTN in a firewall-free DMZ, and shows
// the same store-and-forward relay machinery recovering the wire speed.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"detournet/internal/cloudsim"
	"detournet/internal/core"
	"detournet/internal/fluid"
	"detournet/internal/sdk"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
	"detournet/internal/tcpmodel"
	"detournet/internal/topology"
	"detournet/internal/transport"

	rsyncx "detournet/internal/rsyncx"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "science-dmz: %v\n", err)
		os.Exit(1)
	}
}

// run prints both upload times to out.
func run(out io.Writer) error {
	eng := simclock.NewEngine()
	r := simproc.New(eng)
	defer r.Close()
	g := topology.New(fluid.New(eng))
	for _, n := range []string{"workstation", "firewall", "border", "dtn", "provider-dc"} {
		g.MustAddNode(&topology.Node{Name: n, Kind: topology.Host, RespondsICMP: true})
	}
	lan := topology.LinkSpec{CapacityBps: 10e6, DelaySec: 0.0005}
	wan := topology.LinkSpec{CapacityBps: 10e6, DelaySec: 0.015}
	// The stateful firewall caps each flow at 1 MB/s even though its
	// wire is 10 MB/s.
	fw := topology.LinkSpec{CapacityBps: 10e6, DelaySec: 0.001, PerFlowCapBps: 1e6}
	g.MustConnect("workstation", "firewall", lan)
	g.MustConnect("firewall", "border", fw)
	g.MustConnect("workstation", "dtn", lan) // internal path, no firewall
	g.MustConnect("dtn", "border", lan)      // the DMZ faces the WAN directly
	g.MustConnect("border", "provider-dc", wan)
	// Ordinary traffic is policy-routed through the firewall.
	g.MustSetOverride("workstation", "firewall", "border", "provider-dc")

	tn := transport.NewNet(g, r, tcpmodel.Params{RwndBytes: 4 << 20})
	svc := cloudsim.NewService(eng, tn, "GoogleDrive", "provider-dc", cloudsim.GoogleDrive)
	svc.Start(tn)

	daemon := rsyncx.NewDaemon(tn, "dtn")
	daemon.Start()
	agent := core.NewAgent(tn, "dtn", daemon)
	agent.RegisterProvider(sdk.NewGoogleDrive(eng, tn, "dtn", "provider-dc",
		sdk.Register(svc, "dtn-agent", "s"), sdk.Options{}))
	agent.Start()

	var err error
	done := false
	r.Go("demo", func(p *simproc.Proc) {
		defer func() { done = true }()
		client := sdk.NewGoogleDrive(eng, tn, "workstation", "provider-dc",
			sdk.Register(svc, "workstation", "s"), sdk.Options{})
		defer client.Close()

		const size = 50e6
		var direct, dmz core.Report
		if direct, err = core.DirectUpload(p, client, "through-firewall.bin", size, ""); err != nil {
			return
		}
		dc := core.NewDetourClient(tn, "workstation", "dtn")
		if dmz, err = dc.Upload(p, "GoogleDrive", "via-dmz.bin", size, ""); err != nil {
			return
		}

		fmt.Fprintln(out, "Uploading 50 MB from a firewalled workstation:")
		fmt.Fprintf(out, "  through the firewall (1 MB/s per-flow cap): %6.1f s\n", direct.Total)
		fmt.Fprintf(out, "  via the Science-DMZ DTN:                    %6.1f s"+
			"  (LAN %0.1f s + WAN %0.1f s)\n", dmz.Total, dmz.Hop1, dmz.Hop2)
		fmt.Fprintf(out, "\nThe DTN restores %.1fx of the firewall-throttled throughput —\n",
			direct.Total/dmz.Total)
		fmt.Fprintln(out, "the same relay machinery as the WAN detours, pointed at a local bottleneck.")
	})
	r.Drive()
	if !done {
		return errors.New("demo did not finish")
	}
	return err
}
