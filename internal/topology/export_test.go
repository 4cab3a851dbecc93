package topology

import "fmt"

// MinWeight routes by an arbitrary edge weight.
type MinWeight struct{ Weight WeightFunc }

// Path implements PathFinder.
func (r MinWeight) Path(g *Graph, src, dst *Node) ([]*Node, error) {
	if r.Weight == nil {
		return nil, fmt.Errorf("topology: MinWeight with nil weight func")
	}
	return route(g, src, dst, r.Weight, nil)
}
