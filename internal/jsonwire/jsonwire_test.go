package jsonwire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// encoder is every message a side writes.
type encoder interface{ AppendJSON([]byte) []byte }

// encoders lists one value of each message type with an encoder.
func encoders() []encoder {
	return []encoder{&FileMeta{}, &FileList{}, &ErrorBody{}, &Token{}, &DriveInit{},
		&UploadSession{}, &NextRanges{}, &ComposeRequest{}, &SessionStart{},
		&OffsetConflict{}, &DropboxPath{}, &DropboxCursor{}, &DropboxAppend{}, &DropboxFinish{}}
}

// reader is every message a side reads.
type reader interface{ read(*scanner) }

// readers lists one value of each message type with a parser.
func readers() []reader {
	return []reader{&FileMeta{}, &Token{}, &DriveInit{}, &UploadSession{},
		&SessionStart{}, &DropboxPath{}, &DropboxCursor{}, &DropboxArg{}}
}

// hostileStrings need every kind of escape json.Marshal knows: quotes
// and backslashes, its HTML escapes, control bytes, U+2028 and U+2029,
// invalid UTF-8 (rewritten to U+FFFD) and plain non-ASCII.
var hostileStrings = []string{
	"", "pin.bin", "sess-0", "<>&", "a<b>c&d", `quote"back\slash`,
	"line\u2028para\u2029", "bad\xff\xfe", "\xc3", "ctl\x00\x01\x1f", "del\x7f",
	"tab\tnl\nret\r", "\b\f", "héllo", "日本語", "null", "{", "}", ",", ":",
	"/upload/drive/v3/sessions/sess-3", "https://up.example/drive?uploadType=resumable&upload_id=42",
}

// hostileFloats straddle json's switch between 'f' and 'e' formats and
// reach both ends of float64.
var hostileFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 4194304, 24e6, 123456789.125,
	1e-6, 9.999999e-7, 1e-7, -1e-7, 1e20, 999999999999999999999, 1e21, -1e21, 1.5e300,
	5e-324, 1e-320, 2.2250738585072014e-308, math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
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

// length is a slice length; -1 means nil, and so does it for a pointer.
func (s randSource) length() int { return s.rng.Intn(5) - 1 }

// fill sets every field of v, recursively, from src: the codecs are
// checked against every field the messages have, including any added
// later.
func fill(v reflect.Value, src randSource) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(src.str())
	case reflect.Float64:
		v.SetFloat(src.float())
	case reflect.Slice:
		if n := src.length(); n >= 0 {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				fill(v.Index(i), src)
			}
		}
	case reflect.Pointer:
		if src.length() >= 0 {
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem(), src)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), src)
		}
	default:
		panic(fmt.Sprintf("fill: no rule for %s", v.Type()))
	}
}

// encode runs m's encoder after a prefix the encoder must keep, and
// returns its bytes or the message it panicked with.
func encode(m encoder) (got []byte, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	const prefix = "frame>"
	b := m.AppendJSON([]byte(prefix))
	if string(b[:len(prefix)]) != prefix {
		return nil, "encoder overwrote the bytes before it"
	}
	return b[len(prefix):], ""
}

// checkEncoder fails unless m's encoder writes exactly json.Marshal's
// bytes, or, where json.Marshal refuses m, panics with its error.
func checkEncoder(t testing.TB, m encoder) {
	t.Helper()
	want, err := json.Marshal(m)
	got, panicked := encode(m)
	if err != nil {
		if msg := "jsonwire: " + err.Error(); panicked != msg {
			t.Fatalf("%T: json.Marshal fails with %v; the encoder gave %q, panic %q, want panic %q",
				m, err, got, panicked, msg)
		}
		return
	}
	if panicked != "" || !bytes.Equal(got, want) {
		t.Fatalf("%T %+v:\nencoder   %s (panic %q)\njson      %s", m, m, got, panicked, want)
	}
}

// TestWireCodecMatchesMarshal: for random messages of every type with
// an encoder, the encoder writes exactly json.Marshal's bytes — hostile
// strings, both float formats and their edges, nil and empty slices and
// nil pointers included — and panics with json's error on NaN and ±Inf.
// Each message the real APIs wrote as a map encodes to that map's bytes.
func TestWireCodecMatchesMarshal(t *testing.T) {
	src := randSource{rand.New(rand.NewSource(40))}
	for i := 0; i < 3000; i++ {
		for _, proto := range encoders() {
			v := reflect.New(reflect.TypeOf(proto).Elem())
			fill(v.Elem(), src)
			checkEncoder(t, v.Interface().(encoder))
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkEncoder(t, &FileMeta{Size: bad})
		checkEncoder(t, &DropboxFinish{Cursor: DropboxCursor{Offset: bad}})
	}
	for i := 0; i < 300; i++ {
		s1, s2, s3, f := src.str(), src.str(), src.str(), src.float()
		parts := []string{s3, s1}
		for _, c := range []struct {
			typed encoder
			m     any
		}{
			{&OffsetConflict{CorrectOffset: f, Error: s1}, map[string]any{"error": s1, "correct_offset": f}},
			{&UploadSession{UploadURL: s1, ExpirationDateTime: s2}, map[string]any{"uploadUrl": s1, "expirationDateTime": s2}},
			{&ComposeRequest{Name: s1, MD5: s2, Parts: parts}, map[string]any{"name": s1, "md5": s2, "parts": parts}},
			{&NextRanges{NextExpectedRanges: parts}, map[string]any{"nextExpectedRanges": parts}},
			{&SessionStart{SessionID: s1}, map[string]string{"session_id": s1}},
			{&ErrorBody{Error: s1}, map[string]any{"error": s1}},
			{&FileList{Files: []FileMeta{{ID: s1, Name: s2, Size: f, MD5: s3}}}, map[string]any{"files": []FileMeta{{ID: s1, Name: s2, Size: f, MD5: s3}}}},
		} {
			want, err := json.Marshal(c.m)
			if got, _ := encode(c.typed); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%T: encoder %s, map %s (%v)", c.typed, got, want, err)
			}
		}
	}
}

// checkDecode fails unless decoding data as proto's type agrees with
// json.Unmarshal: where the fast parser takes data, Unmarshal must take
// it too and give the same value; and Decode, fast or not, must give
// Unmarshal's value and fail exactly when Unmarshal does. It reports
// whether the fast parser took data.
func checkDecode(t testing.TB, proto reader, data string) bool {
	t.Helper()
	typ := reflect.TypeOf(proto).Elem()
	want := reflect.New(typ)
	werr := json.Unmarshal([]byte(data), want.Interface())

	fast := reflect.New(typ)
	s := scanner{data: data}
	fast.Interface().(reader).read(&s)
	if s.end() && (werr != nil || !reflect.DeepEqual(fast.Elem().Interface(), want.Elem().Interface())) {
		t.Fatalf("%s %q: fast parser gives %+v, json.Unmarshal %+v (%v)", typ, data, fast.Elem(), want.Elem(), werr)
	}

	got := reflect.New(typ)
	var err error
	switch m := got.Interface().(type) {
	case *DropboxArg:
		err = m.Decode(data)
	case interface{ Decode([]byte) error }:
		err = m.Decode([]byte(data))
	default:
		return s.end() // a nested message, read only inside others
	}
	if (err == nil) != (werr == nil) || werr == nil && !reflect.DeepEqual(got.Elem().Interface(), want.Elem().Interface()) {
		t.Fatalf("%s %q: Decode gives %+v (%v), json.Unmarshal %+v (%v)", typ, data, got.Elem(), err, want.Elem(), werr)
	}
	return s.end()
}

// decodeSeeds are inputs around the fast form's edges: the encoders'
// own output, and forms it must hand to json.Unmarshal — null values,
// a null pointer field, whitespace, escapes, other key orders and
// cases, duplicate keys, merged pointer fields, unknown keys, numbers
// json refuses or writes differently, and broken JSON: missing, leading
// and trailing commas, and truncation.
var decodeSeeds = []string{
	`{"id":"f-0","name":"pin.bin","size":4194304,"md5":"pin-md5"}`,
	`{"id":"f-0","name":"pin.bin","size":1e21}`,
	`{"access_token":"at-0","token_type":"Bearer","expires_in":3600}`,
	`{"name":"f","size":0}`, `{"name":"f","size":-0}`, `{"name":"f","size":01}`,
	`{"expirationDateTime":"simulated","uploadUrl":"/v1.0/upload/sess-0"}`,
	`{"session_id":"sess-0"}`,
	`{"path":"pin.bin"}`, `{"path":null}`, `{}`, `{"cursor":null}`, `{"commit":null}`,
	`{"cursor":{"session_id":"sess-0","offset":4194304}}`,
	`{"commit":{"path":"pin.bin"},"cursor":{"session_id":"sess-0","offset":8388608}}`,
	`{"cursor":{"session_id":"a"},"cursor":{"offset":1}}`,
	`{"cursor":{"offset":1,"session_id":"a"}}`, `{"Path":"a"}`, `{"path":"a","path":"b"}`,
	`{"path":"a","extra":1}`, `{ "path":"a"}`, `{"path":"a"} `, ` {"path":"a"}`,
	`{"path":"a\u003cb"}`, `{"path":"a\"b"}`, `{"path":"é"}`, "{\"path\":\"a\x7f\"}",
	`{"size":1e400}`, `{"size":1e-400}`, `{"size":.5}`, `{"size":1.}`, `{"size":+1}`, `{"size":1E+2}`,
	`{"size":Infinity}`, `{"size":"1"}`, `{"size":true}`, `{"path":1}`,
	`{"id":"a""name":"b"}`, `{"commit":{"path":"a"}"cursor":{"session_id":"s","offset":1}}`,
	`{,"path":"a"}`, `{"path":"a",}`,
	`{"path":"a"`, `{"path"`, `{`, ``, `null`, `[]`, `"a"`,
}

// TestEncoderOutputIsFastForm: what an encoder writes for strings of
// printable ASCII without escapes is in its own parser's fast form, and
// every encoder's output decodes to json.Unmarshal's value.
func TestEncoderOutputIsFastForm(t *testing.T) {
	src := randSource{rand.New(rand.NewSource(41))}
	for i := 0; i < 1000; i++ {
		for _, proto := range readers() {
			v := reflect.New(reflect.TypeOf(proto).Elem())
			fill(v.Elem(), src)
			enc, ok := v.Interface().(encoder)
			if !ok {
				continue
			}
			data, panicked := encode(enc)
			if panicked != "" {
				continue
			}
			if !checkDecode(t, proto, string(data)) && plainASCII(v.Elem()) {
				t.Fatalf("%T: the encoder's %s is not in the fast form", proto, data)
			}
		}
	}
}

// plainASCII reports whether every string in v is printable ASCII that
// json.Marshal writes without an escape.
func plainASCII(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.String:
		s := v.String()
		for i := 0; i < len(s); i++ {
			if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				return false
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if !plainASCII(v.Index(i)) {
				return false
			}
		}
	case reflect.Pointer:
		return v.IsNil() || plainASCII(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !plainASCII(v.Field(i)) {
				return false
			}
		}
	}
	return true
}

// FuzzWireDecode: any input the fast parser of a message type takes
// decodes to exactly json.Unmarshal's value, and Decode agrees with
// json.Unmarshal on every input.
func FuzzWireDecode(f *testing.F) {
	for i, data := range decodeSeeds {
		f.Add(uint8(i), data)
	}
	f.Fuzz(func(t *testing.T, typ uint8, data string) {
		protos := readers()
		checkDecode(t, protos[int(typ)%len(protos)], data)
	})
}

// A warm decode of the hottest messages allocates only what
// json.Unmarshal's value must own: the cursor a Dropbox-API-Arg points
// to, and for a body, the one string its fields slice.
func TestDecodeAllocs(t *testing.T) {
	arg := `{"cursor":{"session_id":"sess-0","offset":4194304}}`
	meta := []byte(`{"id":"f-0","name":"pin.bin","size":4194304,"md5":"pin-md5"}`)
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"DropboxArg", 1, func() {
			var a DropboxArg
			if a.Decode(arg) != nil || a.Cursor == nil {
				t.Fatal("bad decode")
			}
		}},
		{"FileMeta", 1, func() {
			var m FileMeta
			if m.Decode(meta) != nil || m.Size != 4194304 {
				t.Fatal("bad decode")
			}
		}},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got != c.want {
			t.Errorf("%s: %v allocations per decode, want %v", c.name, got, c.want)
		}
	}
}
