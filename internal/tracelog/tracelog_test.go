package tracelog

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"detournet/internal/simclock"
)

func TestEmitAndEvents(t *testing.T) {
	eng := simclock.NewEngine()
	l := New(eng)
	eng.Schedule(5, func() { l.Emit("a.b", map[string]any{"x": 1}) })
	eng.Schedule(7, func() { l.Emit("a.c", nil) })
	eng.Run()
	evs := l.Events()
	if len(evs) != 2 || l.Len() != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].At != 5 || evs[0].Kind != "a.b" || evs[0].Attrs["x"] != 1 {
		t.Fatalf("ev0 = %+v", evs[0])
	}
	if evs[1].At != 7 {
		t.Fatalf("ev1 = %+v", evs[1])
	}
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Emit("anything", nil) // must not panic
	if l.Len() != 0 || l.Events() != nil || l.Filter("x") != nil {
		t.Fatal("nil log not inert")
	}
	if err := l.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyKindPanics(t *testing.T) {
	l := New(simclock.NewEngine())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	l.Emit("", nil)
}

func TestFilterByPrefix(t *testing.T) {
	l := New(simclock.NewEngine())
	l.Emit("detour.upload.done", nil)
	l.Emit("detour.download.done", nil)
	l.Emit("agent.relay.upload", nil)
	l.Emit("detourish", nil) // prefix must respect segment boundaries
	if got := len(l.Filter("detour")); got != 2 {
		t.Fatalf("Filter(detour) = %d, want 2", got)
	}
	if got := len(l.Filter("detour.upload.done")); got != 1 {
		t.Fatalf("exact filter = %d", got)
	}
	if got := len(l.Filter("nothing")); got != 0 {
		t.Fatalf("miss filter = %d", got)
	}
}

func TestCapEvictsOldest(t *testing.T) {
	l := New(simclock.NewEngine())
	l.Cap = 3
	for i := 0; i < 10; i++ {
		l.Emit("e", map[string]any{"i": i})
	}
	evs := l.Events()
	if len(evs) != 3 || evs[0].Attrs["i"] != 7 {
		t.Fatalf("evicted wrong events: %+v", evs)
	}
}

func TestWriteJSONL(t *testing.T) {
	eng := simclock.NewEngine()
	l := New(eng)
	l.Emit("k1", map[string]any{"a": "b"})
	l.Emit("k2", nil)
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != "k1" || e.Attrs["a"] != "b" {
		t.Fatalf("decoded = %+v", e)
	}
}

func TestEventStringSortsKeys(t *testing.T) {
	e := Event{At: 1.5, Kind: "mp.chunk.done", Attrs: map[string]any{
		AttrRoute: "via ualberta",
		AttrChunk: 3,
		AttrPath:  1,
		"bytes":   8388608.0,
		"note":    "",
	}}
	want := `t=1.5 mp.chunk.done bytes=8.388608e+06 chunk=3 note="" path_id=1 route="via ualberta"`
	if got := e.String(); got != want {
		t.Fatalf("String:\n got %q\nwant %q", got, want)
	}
}

func TestEventStringDeterministic(t *testing.T) {
	// Maps iterate in random order; String must not. Render the same
	// event many times and across map-insertion orders.
	mk := func(reverse bool) Event {
		attrs := map[string]any{}
		keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		if reverse {
			for i := len(keys) - 1; i >= 0; i-- {
				attrs[keys[i]] = i
			}
		} else {
			for i, k := range keys {
				attrs[k] = i
			}
		}
		return Event{At: 2, Kind: "k", Attrs: attrs}
	}
	want := mk(false).String()
	for i := 0; i < 50; i++ {
		if got := mk(i%2 == 1).String(); got != want {
			t.Fatalf("render %d differs:\n got %q\nwant %q", i, got, want)
		}
	}
}
