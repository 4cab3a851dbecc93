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
