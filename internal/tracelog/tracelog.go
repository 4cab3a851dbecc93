// Package tracelog records structured events on the virtual timeline —
// the observability layer a production detour deployment would ship:
// which route a transfer took, how long each hop ran, what the relay
// agent did. Events serialize as JSON lines for offline analysis.
package tracelog

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"detournet/internal/simclock"
)

// Event is one timestamped record.
type Event struct {
	// At is the virtual time in seconds.
	At float64 `json:"t"`
	// Kind is a dotted event name, e.g. "detour.upload.done".
	Kind string `json:"kind"`
	// Attrs carries event fields (strings and numbers).
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Standard span attribute keys. Multipath transfers tag every event
// with the path that produced it, so per-path timelines can be filtered
// out of one interleaved log — and so golden logs are stable: the keys
// are fixed and String renders all attributes in sorted-key order.
const (
	// AttrPath is the integer path index within a striped transfer.
	AttrPath = "path_id"
	// AttrChunk is the integer chunk index within the transfer.
	AttrChunk = "chunk"
	// AttrRoute is the path's route in core.Route.String() form.
	AttrRoute = "route"
	// AttrEntity names the health-tracked entity (route, DTN, or
	// provider) a health.* transition event is about.
	AttrEntity = "entity"
)

// String renders the event as one deterministic text line:
// "t=<time> <kind> k1=v1 k2=v2 ..." with attribute keys sorted.
// Floats render via strconv.FormatFloat(-1), the shortest exact form,
// so equal values always produce identical bytes — the property the
// golden-log tests and `make check`'s byte-compares rely on.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%s %s", formatAttr(e.At), e.Kind)
	keys := make([]string, 0, len(e.Attrs))
	for k := range e.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteByte(' ')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(formatAttr(e.Attrs[k]))
	}
	return b.String()
}

// formatAttr renders one attribute value deterministically. Strings
// with spaces (or empty) are quoted so lines stay machine-splittable.
func formatAttr(v any) string {
	switch x := v.(type) {
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case float32:
		return strconv.FormatFloat(float64(x), 'g', -1, 32)
	case string:
		if x == "" || strings.ContainsAny(x, " \t\n\"") {
			return strconv.Quote(x)
		}
		return x
	default:
		return fmt.Sprintf("%v", v)
	}
}

// Log collects events. The zero value is not usable; use New. A nil
// *Log is safe to emit into (no-op), so instrumented code never needs
// nil checks at call sites.
type Log struct {
	eng    *simclock.Engine
	events []Event
	// Cap bounds retained events (FIFO eviction); zero means unbounded.
	Cap int
}

// New returns an empty log on the clock.
func New(eng *simclock.Engine) *Log {
	if eng == nil {
		panic("tracelog: nil engine")
	}
	return &Log{eng: eng}
}

// Emit appends an event at the current virtual time. Emit on a nil log
// is a no-op.
func (l *Log) Emit(kind string, attrs map[string]any) {
	if l == nil {
		return
	}
	if kind == "" {
		panic("tracelog: empty event kind")
	}
	l.events = append(l.events, Event{At: float64(l.eng.Now()), Kind: kind, Attrs: attrs})
	if l.Cap > 0 && len(l.events) > l.Cap {
		l.events = l.events[len(l.events)-l.Cap:]
	}
}

// Len returns the number of retained events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return len(l.events)
}

// Events returns a copy of the retained events in emission order.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	return append([]Event(nil), l.events...)
}

// Filter returns events whose kind matches the prefix (dotted segments).
func (l *Log) Filter(prefix string) []Event {
	if l == nil {
		return nil
	}
	var out []Event
	for _, e := range l.events {
		if e.Kind == prefix || strings.HasPrefix(e.Kind, prefix+".") {
			out = append(out, e)
		}
	}
	return out
}

// WriteJSONL streams the events as JSON lines.
func (l *Log) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, e := range l.events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
