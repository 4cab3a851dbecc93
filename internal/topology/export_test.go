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

// Dist returns the search distance to n and whether n was settled; the
// search tests' reader of one node's distance.
func (t Tree) Dist(n *Node) (float64, bool) {
	if n.g != t.g || !t.slots[n.idx].settled {
		return 0, false
	}
	return t.slots[n.idx].dist, true
}
