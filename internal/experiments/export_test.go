package experiments

import (
	"detournet/internal/core"
	"detournet/internal/stats"
)

// Mean returns the mean transfer time of one cell (0 when the grid has
// no such cell).
func (s *Suite) Mean(client, provider string, route core.Route, sizeMB int) float64 {
	c := s.Pair(client, provider).Grid.Cell(sizeMB, route)
	if c == nil {
		return 0
	}
	return c.Summary.Mean
}

// RelativeGain returns the percent change of a detour versus direct for
// one cell (negative = faster), as bracketed in Tables II/III.
func (s *Suite) RelativeGain(client, provider string, route core.Route, sizeMB int) float64 {
	g := s.Pair(client, provider).Grid
	direct := g.Cell(sizeMB, core.DirectRoute)
	c := g.Cell(sizeMB, route)
	return stats.RelativeChange(direct.Summary.Mean, c.Summary.Mean)
}
