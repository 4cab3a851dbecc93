package cloudsim

import (
	"math"
	"testing"
)

// FuzzParseContentRange must never panic, and every range it accepts
// must be whole bytes with 0 <= lo <= hi < total (or total unknown, -1).
// The checks are written so that NaN fails them.
func FuzzParseContentRange(f *testing.F) {
	f.Add("bytes 0-99/1000")
	f.Add("bytes 100-199/*")
	f.Add("bytes 5-2/10")
	f.Add("")
	f.Add("octets 1-2/3")
	f.Add("bytes -1-2/3")
	f.Add("bytes 0-NaN/100")
	f.Add("bytes 0-99/100junk")
	f.Fuzz(func(t *testing.T, s string) {
		lo, hi, total, err := parseContentRange(s)
		if err != nil {
			return
		}
		whole := func(x float64) bool { return !math.IsInf(x, 0) && math.Trunc(x) == x }
		if !(lo >= 0 && hi >= lo && whole(lo) && whole(hi)) {
			t.Fatalf("accepted invalid range %q -> %v %v", s, lo, hi)
		}
		if !(total == -1 || (total > hi && whole(total))) {
			t.Fatalf("accepted invalid total %q -> %v (hi %v)", s, total, hi)
		}
	})
}
