package lib

import "testing"

func TestPlanted(t *testing.T) {
	if Planted() != 2 || (Tally{}).Area(3) != 3 || (Config{Limit: 3}).Cap() != 3 {
		t.Fatal("planted names broken")
	}
}
