// Quickstart: build the case-study world, upload one file from the UBC
// PlanetLab node to Google Drive directly and via the UAlberta detour,
// and print both timings — the paper's headline example (Sec I: 87 s
// direct vs 36 s detoured for 100 MB).
package main

import (
	"fmt"
	"io"
	"os"

	"detournet/internal/core"
	"detournet/internal/fileutil"
	"detournet/internal/scenario"
	"detournet/internal/simproc"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
}

// run prints both timings to out.
func run(out io.Writer) error {
	// A World is the full simulated substrate: topology, TCP transport,
	// the three provider services, rsync daemons and relay agents on the
	// two DTNs, and seeded cross-traffic.
	w := scenario.Build(2015)
	defer w.Close()

	// The workload runs as a simulation process on virtual time.
	var err error
	w.RunWorkload("quickstart", func(p *simproc.Proc) {
		file := fileutil.New("quickstart-100MB.bin", 100*fileutil.MB, 1)

		// Direct upload with the Google Drive SDK from the UBC node.
		drive := w.NewSDKClient(scenario.UBC, scenario.GoogleDrive)
		defer drive.Close()
		var direct, viaUAlberta core.Report
		if direct, err = core.DirectUpload(p, drive, file.Name, file.Size, file.MD5); err != nil {
			return
		}

		// Detoured upload: rsync to the UAlberta DTN, then the relay
		// agent uploads from there.
		detour := w.NewDetourClient(scenario.UBC, scenario.UAlberta)
		if viaUAlberta, err = detour.Upload(p, scenario.GoogleDrive, file.Name, file.Size, file.MD5); err != nil {
			return
		}

		fmt.Fprintf(out, "Uploading %s from %s to %s:\n\n", file.Name, scenario.UBC, scenario.GoogleDrive)
		fmt.Fprintf(out, "  %-14s %8.1f s\n", direct.Route, direct.Total)
		fmt.Fprintf(out, "  %-14s %8.1f s  (rsync %.1f s + upload %.1f s)\n",
			viaUAlberta.Route, viaUAlberta.Total, viaUAlberta.Hop1, viaUAlberta.Hop2)
		fmt.Fprintf(out, "\nThe geographic detour through Edmonton is %.1fx faster.\n",
			direct.Total/viaUAlberta.Total)
	})
	return err
}
