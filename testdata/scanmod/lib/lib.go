// Package lib holds the names the scan self-test plants.
package lib

// Used is reached from cmd/app.
func Used() int { return 1 }

// Planted is reached only from lib_test.go.
func Planted() int { return helper() }

func helper() int { return 2 }

// Shape is the interface cmd/app calls Area through.
type Shape interface{ Area() int }

// Square is a Shape: its Area is live with no call that names it.
type Square struct{}

// Area implements Shape.
func (Square) Area() int { return 4 }

// Tally is used by cmd/app, but its Area has another signature, so it
// is no Shape and only a test calls it.
type Tally struct{}

// Area is reached only from lib_test.go.
func (Tally) Area(n int) int { return n }

// Config is built by cmd/app, which never sets Limit: only
// lib_test.go does, so Limit is a knob no run turns.
type Config struct {
	Name  string
	Limit int
}

// Cap is Limit, or 10 when Limit is unset.
func (c Config) Cap() int {
	if c.Limit > 0 {
		return c.Limit
	}
	return 10
}

// Pair is only ever built by a positional literal, which sets both
// fields.
type Pair struct{ A, B int }

// Sum reads both fields of a positional Pair.
func Sum() int {
	p := Pair{1, 2}
	return p.A + p.B
}

// Meta is built with a keyed literal; FileInfo only by converting a
// Meta, which sets every field.
type Meta struct{ Size int }

// FileInfo has Meta's layout.
type FileInfo struct{ Size int }

// Info reads Size through the conversion.
func Info(m Meta) int { return FileInfo(m).Size }

// Hops is only ever filled element by element.
type Hops struct{ RTT [2]int }

// Probe writes RTT through an index, then reads it.
func Probe() int {
	var h Hops
	h.RTT[1] = 3
	return h.RTT[0] + h.RTT[1]
}
