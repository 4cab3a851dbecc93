package sdk

import (
	"fmt"
	"math"
	"testing"

	"detournet/internal/cloudsim"
	"detournet/internal/simproc"
)

// uploadPin is Upload's observable wire behaviour for one (provider,
// size) case on a fresh world: API requests served (token fetches
// excluded), materializing commits of the name, the returned metadata,
// and the exact virtual completion time.
type uploadPin struct {
	requests int
	commits  int
	info     FileInfo
	doneBits uint64
}

// TestUploadWirePinned pins every provider's Upload at the sizes where
// chunking changes shape: empty, one byte, one short of a chunk, exactly
// a chunk, one past it, and two and a half chunks. Any change to the
// requests a protocol issues, their order or their sizes moves at least
// one of these constants.
func TestUploadWirePinned(t *testing.T) {
	want := map[string]uploadPin{
		"GoogleDrive/0":        {2, 1, FileInfo{ID: "f-0", Name: "pin.bin", Size: 0, MD5: ""}, 0x3fd409e3609bbe06},
		"GoogleDrive/1":        {2, 1, FileInfo{ID: "f-0", Name: "pin.bin", Size: 1, MD5: "pin-md5"}, 0x3fd40de03b127a17},
		"GoogleDrive/8388607":  {2, 1, FileInfo{ID: "f-0", Name: "pin.bin", Size: 8.388607e+06, MD5: "pin-md5"}, 0x3ff95e9f348262c3},
		"GoogleDrive/8388608":  {2, 1, FileInfo{ID: "f-0", Name: "pin.bin", Size: 8.388608e+06, MD5: "pin-md5"}, 0x3ff95e9f571204b8},
		"GoogleDrive/8388609":  {3, 1, FileInfo{ID: "f-0", Name: "pin.bin", Size: 8.388609e+06, MD5: "pin-md5"}, 0x3ffa37a9a7deeeda},
		"GoogleDrive/20971520": {4, 1, FileInfo{ID: "f-0", Name: "pin.bin", Size: 2.097152e+07, MD5: "pin-md5"}, 0x400a7e3c8948d44e},
		"Dropbox/0":            {1, 1, FileInfo{ID: "f-0", Name: "pin.bin", Size: 0, MD5: "pin-md5"}, 0x3fd0951400360244},
		"Dropbox/1":            {1, 1, FileInfo{ID: "f-0", Name: "pin.bin", Size: 1, MD5: "pin-md5"}, 0x3fd09522cbb995b0},
		"Dropbox/4194303":      {1, 1, FileInfo{ID: "f-0", Name: "pin.bin", Size: 4.194303e+06, MD5: "pin-md5"}, 0x3fefb7ecc1bd9402},
		"Dropbox/4194304":      {1, 1, FileInfo{ID: "f-0", Name: "pin.bin", Size: 4.194304e+06, MD5: "pin-md5"}, 0x3fefb7ed06dcd7e9},
		"Dropbox/4194305":      {2, 1, FileInfo{ID: "f-0", Name: "pin.bin", Size: 4.194305e+06, MD5: "pin-md5"}, 0x3ff0b57c667ecd84},
		"Dropbox/10485760":     {3, 1, FileInfo{ID: "f-0", Name: "pin.bin", Size: 1.048576e+07, MD5: "pin-md5"}, 0x3ffe8413e99a64af},
		"OneDrive/0":           {2, 1, FileInfo{ID: "f-0", Name: "pin.bin", Size: 1, MD5: "pin-md5"}, 0x3fd40d78aa797224},
		"OneDrive/1":           {2, 1, FileInfo{ID: "f-0", Name: "pin.bin", Size: 1, MD5: "pin-md5"}, 0x3fd40d78aa797224},
		"OneDrive/10485759":    {2, 1, FileInfo{ID: "f-0", Name: "pin.bin", Size: 1.0485759e+07, MD5: "pin-md5"}, 0x3ffdb08e8915908a},
		"OneDrive/10485760":    {2, 1, FileInfo{ID: "f-0", Name: "pin.bin", Size: 1.048576e+07, MD5: "pin-md5"}, 0x3ffdb08eaba5327d},
		"OneDrive/10485761":    {3, 1, FileInfo{ID: "f-0", Name: "pin.bin", Size: 1.0485761e+07, MD5: "pin-md5"}, 0x3ffe8a583da38979},
		"OneDrive/26214400":    {4, 1, FileInfo{ID: "f-0", Name: "pin.bin", Size: 2.62144e+07, MD5: "pin-md5"}, 0x400fe564afa42e0f},
	}
	for _, style := range []cloudsim.Style{cloudsim.GoogleDrive, cloudsim.Dropbox, cloudsim.OneDrive} {
		chunk := style.DefaultChunkBytes()
		for _, size := range []float64{0, 1, chunk - 1, chunk, chunk + 1, 2.5 * chunk} {
			key := fmt.Sprintf("%s/%.0f", style, size)
			w := newWorld(t)
			c := w.client(t, style, Options{})
			svc := w.svc[style]
			var got uploadPin
			w.run(t, func(p *simproc.Proc) {
				req0 := svc.Requests
				fi, err := c.Upload(p, "pin.bin", size, "pin-md5")
				if err != nil {
					t.Errorf("%s: upload: %v", key, err)
					return
				}
				got = uploadPin{
					requests: svc.Requests - req0,
					commits:  svc.Store.Commits("pin.bin"),
					info:     fi,
					doneBits: math.Float64bits(float64(p.Now())),
				}
				c.Close()
			})
			if w, ok := want[key]; !ok || w != got {
				t.Errorf("%s: got %+v, want %+v", key, got, w)
			}
		}
	}
}
