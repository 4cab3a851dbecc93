package measure

import (
	"bytes"
	"testing"

	"detournet/internal/core"
	"detournet/internal/stats"
)

// goldenGrid is a small hand-built grid with exactly-representable
// numbers, so every export format can be pinned byte-for-byte. Values
// echo the paper's UBC→Google Drive headline (87 s direct vs 36 s via
// UAlberta at 100 MB).
func goldenGrid() *Grid {
	spec := GridSpec{
		Client:   "ubc-pl",
		Provider: "GoogleDrive",
		Routes:   []core.Route{core.DirectRoute, core.ViaRoute("ualberta")},
		SizesMB:  []int{10, 100},
		Runs:     3, Keep: 3,
	}
	mk := func(sizeMB int, route core.Route, runs []float64, hop1, hop2 float64) *Cell {
		return &Cell{
			SizeMB: sizeMB, Route: route, Runs: runs,
			Summary: stats.LastN(runs, spec.Keep),
			Hop1:    hop1, Hop2: hop2,
		}
	}
	return &Grid{
		Spec: spec,
		Cells: []*Cell{
			mk(10, core.DirectRoute, []float64{7, 8, 9}, 0, 8),
			mk(10, core.ViaRoute("ualberta"), []float64{5.25, 5.25, 5.25}, 2.25, 3),
			mk(100, core.DirectRoute, []float64{86, 87, 88}, 0, 87),
			mk(100, core.ViaRoute("ualberta"), []float64{35, 36, 37}, 17, 19),
		},
	}
}

const goldenCSV = `client,provider,size_mb,route,mean_s,stddev_s,runs_kept,hop1_s,hop2_s,runs_s
ubc-pl,GoogleDrive,10,Direct,8.000,1.000,3,0.000,8.000,7.000;8.000;9.000
ubc-pl,GoogleDrive,10,via ualberta,5.250,0.000,3,2.250,3.000,5.250;5.250;5.250
ubc-pl,GoogleDrive,100,Direct,87.000,1.000,3,0.000,87.000,86.000;87.000;88.000
ubc-pl,GoogleDrive,100,via ualberta,36.000,1.000,3,17.000,19.000,35.000;36.000;37.000
`

func TestWriteCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenGrid().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != goldenCSV {
		t.Errorf("CSV drifted from golden.\ngot:\n%s\nwant:\n%s", got, goldenCSV)
	}
}

const goldenJSON = `[
  {
    "client": "ubc-pl",
    "provider": "GoogleDrive",
    "size_mb": 10,
    "route": "Direct",
    "mean_s": 8,
    "stddev_s": 1,
    "runs_kept": 3,
    "hop1_s": 0,
    "hop2_s": 8,
    "runs_s": [
      7,
      8,
      9
    ]
  },
  {
    "client": "ubc-pl",
    "provider": "GoogleDrive",
    "size_mb": 10,
    "route": "via ualberta",
    "mean_s": 5.25,
    "stddev_s": 0,
    "runs_kept": 3,
    "hop1_s": 2.25,
    "hop2_s": 3,
    "runs_s": [
      5.25,
      5.25,
      5.25
    ]
  },
  {
    "client": "ubc-pl",
    "provider": "GoogleDrive",
    "size_mb": 100,
    "route": "Direct",
    "mean_s": 87,
    "stddev_s": 1,
    "runs_kept": 3,
    "hop1_s": 0,
    "hop2_s": 87,
    "runs_s": [
      86,
      87,
      88
    ]
  },
  {
    "client": "ubc-pl",
    "provider": "GoogleDrive",
    "size_mb": 100,
    "route": "via ualberta",
    "mean_s": 36,
    "stddev_s": 1,
    "runs_kept": 3,
    "hop1_s": 17,
    "hop2_s": 19,
    "runs_s": [
      35,
      36,
      37
    ]
  }
]
`

func TestWriteJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenGrid().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != goldenJSON {
		t.Errorf("JSON drifted from golden.\ngot:\n%s\nwant:\n%s", got, goldenJSON)
	}
}

func TestFormatTableGolden(t *testing.T) {
	want := "Size(MB)   | Direct                   | via ualberta            \n" +
		"----------------------------------------------------------------\n" +
		"10         | 8.00 s                   | 5.25 s [-34.38%]        \n" +
		"100        | 87.00 s                  | 36.00 s [-58.62%]       \n"
	if got := goldenGrid().FormatTable(); got != want {
		t.Errorf("table drifted from golden.\ngot:\n%q\nwant:\n%q", got, want)
	}
}

func TestFormatFigureGolden(t *testing.T) {
	want := "UBC -> GoogleDrive\n" +
		"   10 MB:  Direct=8.00±1.00  via ualberta=5.25±0.00\n" +
		"  100 MB:  Direct=87.00±1.00  via ualberta=36.00±1.00\n"
	if got := goldenGrid().FormatFigure("UBC -> GoogleDrive"); got != want {
		t.Errorf("figure drifted from golden.\ngot:\n%q\nwant:\n%q", got, want)
	}
}
