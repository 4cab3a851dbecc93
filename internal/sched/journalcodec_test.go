package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"detournet/internal/core"
	"detournet/internal/journal"
	"detournet/internal/sdk"
)

// encodable is every journal record type.
type encodable interface{ appendJSON([]byte) []byte }

// recordTypes lists one value of each journal record type.
func recordTypes() []encodable {
	return []encodable{&submitRec{}, &attemptRec{}, &ckptRec{}, &capRec{},
		&retryRec{}, &lanesRec{}, &finishRec{}, &snapshotRec{}}
}

// hostileStrings need every kind of escape json.Marshal knows: quotes
// and backslashes, its HTML escapes, control bytes, U+2028 and U+2029,
// invalid UTF-8 (rewritten to U+FFFD) and plain non-ASCII.
var hostileStrings = []string{
	"", "tlm-007.bin", "edmn1", "<>&", "a<b>c&d", `quote"back\slash`,
	"line\u2028para\u2029", "bad\xff\xfe", "\xc3", "ctl\x00\x01\x1f", "del\x7f",
	"tab\tnl\nret\r", "\b\f", "héllo", "日本語", "sched: execute x via y: bgppol: a -> b dropped",
	"https://up.example/drive?uploadType=resumable&upload_id=42",
}

// hostileFloats straddle json's switch between 'f' and 'e' formats and
// reach both ends of float64.
var hostileFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 24e6, 123456789.125,
	1e-6, 9.999999e-7, 1e-7, -1e-7, 1e20, 999999999999999999999, 1e21, -1e21, 1.5e300,
	5e-324, 1e-320, 2.2250738585072014e-308, math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
}

// source supplies the values fill writes into a record.
type source interface {
	str() string
	float() float64
	int() int64
	bool() bool
	// length is a slice or map length; -1 means nil.
	length() int
}

// randSource draws from the hostile pools and from raw random values.
type randSource struct{ rng *rand.Rand }

func (s randSource) str() string {
	if s.rng.Intn(3) > 0 {
		return hostileStrings[s.rng.Intn(len(hostileStrings))]
	}
	b := make([]byte, s.rng.Intn(12))
	for i := range b {
		b[i] = byte(s.rng.Intn(256))
	}
	return string(b)
}

func (s randSource) float() float64 {
	switch s.rng.Intn(3) {
	case 0:
		return hostileFloats[s.rng.Intn(len(hostileFloats))]
	case 1:
		return s.rng.NormFloat64() * math.Pow(10, float64(s.rng.Intn(60)-30))
	}
	for {
		if f := math.Float64frombits(s.rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

func (s randSource) int() int64 {
	if s.rng.Intn(2) == 0 {
		return int64(s.rng.Intn(100))
	}
	return s.rng.Int63() - s.rng.Int63()
}

func (s randSource) bool() bool  { return s.rng.Intn(2) == 0 }
func (s randSource) length() int { return s.rng.Intn(5) - 1 }

// fill sets every field of v, recursively, from src: the encoders are
// checked against every field the record types have, including any
// added later.
func fill(v reflect.Value, src source) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(src.str())
	case reflect.Float64:
		v.SetFloat(src.float())
	case reflect.Int, reflect.Int64:
		v.SetInt(src.int())
	case reflect.Bool:
		v.SetBool(src.bool())
	case reflect.Slice:
		if n := src.length(); n >= 0 {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				fill(v.Index(i), src)
			}
		}
	case reflect.Map:
		if n := src.length(); n >= 0 {
			v.Set(reflect.MakeMap(v.Type()))
			for i := 0; i < n; i++ {
				k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
				fill(k, src)
				fill(e, src)
				v.SetMapIndex(k, e)
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), src)
		}
	default:
		panic(fmt.Sprintf("fill: no rule for %s", v.Type()))
	}
}

// encode runs rec's encoder after a prefix the encoder must keep, and
// returns its bytes or the message it panicked with.
func encode(rec encodable) (got []byte, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	const prefix = "frame>"
	b := rec.appendJSON([]byte(prefix))
	if string(b[:len(prefix)]) != prefix {
		return nil, "encoder overwrote the bytes before it"
	}
	return b[len(prefix):], ""
}

// checkCodec fails unless rec's encoder writes exactly json.Marshal's
// bytes, or, where json.Marshal refuses the record, panics with its
// error.
func checkCodec(t testing.TB, rec encodable) {
	t.Helper()
	want, err := json.Marshal(rec)
	got, panicked := encode(rec)
	if err != nil {
		if msg := "jsonwire: " + err.Error(); panicked != msg {
			t.Fatalf("%T: json.Marshal fails with %v; the encoder gave %q, panic %q, want panic %q",
				rec, err, got, panicked, msg)
		}
		return
	}
	if panicked != "" || !bytes.Equal(got, want) {
		t.Fatalf("%T %+v:\nencoder   %s (panic %q)\njson      %s", rec, rec, got, panicked, want)
	}
}

// TestJournalCodecMatchesMarshal: for random records of every type, the
// journal's encoders write exactly json.Marshal's bytes — hostile
// strings, both float formats and their edges, nil and empty slices and
// maps included.
func TestJournalCodecMatchesMarshal(t *testing.T) {
	src := randSource{rand.New(rand.NewSource(26))}
	for i := 0; i < 3000; i++ {
		for _, proto := range recordTypes() {
			v := reflect.New(reflect.TypeOf(proto).Elem())
			fill(v.Elem(), src)
			checkCodec(t, v.Interface().(encodable))
		}
	}
}

// TestJournalCodecRefusesNonFinite: json cannot carry NaN or ±Inf, and
// a journal record holding one panics with json's error, whichever
// float field holds it.
func TestJournalCodecRefusesNonFinite(t *testing.T) {
	src := randSource{rand.New(rand.NewSource(1))}
	for _, proto := range recordTypes() {
		typ := reflect.TypeOf(proto).Elem()
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for field := 0; ; field++ {
				v := reflect.New(typ)
				fill(v.Elem(), src)
				if !setNthFloat(v.Elem(), field, bad) {
					break
				}
				rec := v.Interface().(encodable)
				if _, err := json.Marshal(rec); err == nil {
					continue // the field sat in an empty slice or map
				}
				checkCodec(t, rec)
			}
		}
	}
}

// setNthFloat sets the n-th float64 field reachable in v through
// structs and slices to f, and reports whether there was one.
func setNthFloat(v reflect.Value, n int, f float64) bool {
	var walk func(v reflect.Value) bool
	walk = func(v reflect.Value) bool {
		switch v.Kind() {
		case reflect.Float64:
			if n == 0 {
				v.SetFloat(f)
				return true
			}
			n--
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if walk(v.Field(i)) {
					return true
				}
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				if walk(v.Index(i)) {
					return true
				}
			}
		}
		return false
	}
	return walk(v)
}

// fuzzSource hands out the fuzzer's values in turn.
type fuzzSource struct {
	strs   []string
	floats []float64
	n      int64
	i      int
}

func (s *fuzzSource) next() int { s.i++; return s.i }
func (s *fuzzSource) str() string {
	return s.strs[s.next()%len(s.strs)]
}
func (s *fuzzSource) float() float64 { return s.floats[s.next()%len(s.floats)] }
func (s *fuzzSource) int() int64     { return s.n + int64(s.next()) }
func (s *fuzzSource) bool() bool     { return (s.n>>(s.next()%63))&1 == 1 }
func (s *fuzzSource) length() int    { return int(uint64(s.n)>>(s.next()%61))%5 - 1 }

// FuzzJournalRecord: records of every type built from fuzzed strings,
// floats and integers encode to json.Marshal's bytes, or panic with its
// error where it refuses them.
func FuzzJournalRecord(f *testing.F) {
	f.Add(uint8(0), "tlm-001.bin", "<>&", 24e6, 1e-7, int64(7))
	f.Add(uint8(2), "line\u2028", "bad\xff", 1e21, math.Copysign(0, -1), int64(-3))
	f.Add(uint8(5), "", "ctl\x00\x1f", 5e-324, math.MaxFloat64, int64(1<<40))
	f.Add(uint8(7), "héllo", `q"\`, math.NaN(), math.Inf(-1), int64(12345))
	f.Fuzz(func(t *testing.T, typ uint8, s1, s2 string, f1, f2 float64, n int64) {
		protos := recordTypes()
		proto := protos[int(typ)%len(protos)]
		v := reflect.New(reflect.TypeOf(proto).Elem())
		fill(v.Elem(), &fuzzSource{strs: []string{s1, s2}, floats: []float64{f1, f2}, n: n})
		checkCodec(t, v.Interface().(encodable))
	})
}

// warmCkpt returns a journal on a MemDevice holding one submitted job,
// warmed by n checkpoints and a compaction, so the device has spare
// segments for the next n records and every buffer has grown.
func warmCkpt(n int) (*ControlJournal, Job, *core.Checkpoint) {
	cj, _, err := NewControlJournal(journal.NewMemDevice())
	if err != nil {
		panic(err)
	}
	j := csJob("ckpt-alloc.bin")
	cj.NoteSubmit(j)
	ck := &core.Checkpoint{Hop1Via: "edmn1", Hop1High: 1 << 20, HasSession: true, Hop2High: 1 << 19,
		Session: sdk.SessionToken{Provider: j.Provider, Ref: "/upload/drive/v3/sessions/s1", Name: j.Name, Size: j.Size}}
	for i := 0; i < n; i++ {
		cj.NoteCkpt(j, ck, float64(i))
	}
	cj.mu.Lock()
	if err := cj.compactLocked(); err != nil {
		panic(err)
	}
	cj.mu.Unlock()
	return cj, j, ck
}

// TestNoteCkptAllocs: journaling a checkpoint, the record written at
// every progress watermark of every transfer, allocates nothing once
// the journal is warm.
func TestNoteCkptAllocs(t *testing.T) {
	const runs = 200
	cj, j, ck := warmCkpt(2 * runs)
	w := 0.0
	if avg := testing.AllocsPerRun(runs, func() {
		w++
		cj.NoteCkpt(j, ck, w)
	}); avg != 0 {
		t.Fatalf("NoteCkpt allocates %v times per call", avg)
	}
}

// BenchmarkNoteCkpt: one op is one checkpoint record journaled on a
// MemDevice; a compaction every 1024 records keeps the log bounded.
func BenchmarkNoteCkpt(b *testing.B) {
	cj, j, ck := warmCkpt(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cj.NoteCkpt(j, ck, float64(i))
		if i%1024 == 1023 {
			cj.mu.Lock()
			cj.compactLocked() //nolint:errcheck // an unbounded device has room
			cj.mu.Unlock()
		}
	}
}
