package main

import (
	"fmt"

	"scanmod/lib"
)

func main() {
	var s lib.Shape = lib.Square{}
	fmt.Println(lib.Used(), s.Area(), lib.Tally{})
	fmt.Println(lib.Config{Name: "app"}.Cap(), lib.Sum(), lib.Info(lib.Meta{Size: 5}), lib.Probe())
}
