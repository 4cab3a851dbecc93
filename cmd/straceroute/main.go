// Command straceroute runs a simulated traceroute over the case-study
// topology and prints it in the classic format, optionally geolocating
// every hop the way the paper did with the IP Location Finder service.
//
// Usage:
//
//	straceroute [-from ubc-pl] [-to gdrive-dc] [-geo] [-seed N]
//	straceroute -list            # show available hosts
package main

import (
	"flag"
	"fmt"
	"os"

	"detournet/internal/geo"
	"detournet/internal/scenario"
	"detournet/internal/topology"
	"detournet/internal/traceroutex"
)

func main() {
	var (
		from   = flag.String("from", scenario.UBC, "source host")
		to     = flag.String("to", scenario.GDriveDC, "destination host")
		useGeo = flag.Bool("geo", false, "geolocate every hop")
		seed   = flag.Int64("seed", 2015, "world seed")
		list   = flag.Bool("list", false, "list hosts and exit")
	)
	flag.Parse()

	w := scenario.Build(*seed)
	if *list {
		for _, n := range w.Graph.Nodes() {
			if n.Kind == topology.Host {
				fmt.Printf("%-14s %-40s %s\n", n.Name, n.Hostname, n.IP)
			}
		}
		return
	}
	res, err := traceroutex.Run(w.Graph, *from, *to)
	if err != nil {
		fmt.Fprintf(os.Stderr, "straceroute: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(res.Format())
	if *useGeo {
		fmt.Println("\ngeolocation:")
		hops := res.Geolocate(geo.PaperDB())
		for _, h := range hops {
			if h.Hop.Hidden {
				fmt.Printf("%2d  (anonymous)\n", h.Hop.TTL)
				continue
			}
			if h.OK {
				fmt.Printf("%2d  %-44s %s\n", h.Hop.TTL, h.Hop.Node.Hostname, h.Site.City)
			} else {
				fmt.Printf("%2d  %-44s (unknown)\n", h.Hop.TTL, h.Hop.Node.Hostname)
			}
		}
		fmt.Printf("\napprox. geographic path length: %.0f km\n", traceroutex.PathKm(hops))
	}
}
