package main

import (
	"fmt"

	"scanmod/lib"
)

func main() {
	var s lib.Shape = lib.Square{}
	fmt.Println(lib.Used(), s.Area(), lib.Tally{})
}
