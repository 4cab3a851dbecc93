// Package jsonwire is the simulator's one JSON codec, shared by the
// control journal and the simulated provider and OAuth wire.
//
// Encoding: an append encoder writes exactly the bytes encoding/json's
// Marshal gives for the same value, into a caller's buffer, without
// reflection. The primitives below write one JSON value each; a
// message's encoder strings them together in the order json.Marshal
// writes its fields. The bytes are a contract, not a style: the
// journal's records are replayed with json.Unmarshal, and a message's
// length is part of its request's wire size and so of every virtual
// transfer time. A string of printable ASCII that needs no escape is
// written as is; any other string goes through json.Marshal, which
// escapes it. json cannot carry NaN or ±Inf: one reaching an encoder is
// a simulator bug, and the encoder panics.
//
// Decoding: each message read on every upload (a Dropbox-API-Arg, file
// metadata, the token answer, a session start) has a typed parser for
// its encoder's own form only — exactly its keys, in its encoder's order,
// with no whitespace, strings of printable ASCII without escapes, and
// JSON numbers. On that form the parser's value is json.Unmarshal's;
// any other input, valid JSON or not, goes to json.Unmarshal itself, so
// a decoder accepts and rejects what json.Unmarshal does. A message
// read only on a cold path (an error body, a 409 offset conflict, a
// compose request, Drive's file list) has no parser: its reader calls
// json.Unmarshal.
package jsonwire

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// AppendString appends s as a JSON string. A string of printable ASCII
// that needs no escape is written as is; anything else — a quote, a
// backslash, one of json's HTML escapes <, > and &, a control byte or
// any non-ASCII byte — goes through json.Marshal, which also rewrites
// invalid UTF-8 and escapes U+2028 and U+2029.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// AppendStrings appends a string slice; nil is null, as in json.
func AppendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendString(b, s)
	}
	return append(b, ']')
}

// AppendCounts appends a map in json's order: sorted keys, nil as null;
// appendV writes each value.
func AppendCounts[V any](b []byte, m map[string]V, appendV func([]byte, V) []byte) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendString(b, k)
		b = append(b, ':')
		b = appendV(b, m[k])
	}
	return append(b, '}')
}

// AppendFloat appends f as encoding/json writes a float64: format 'f',
// or 'e' with the exponent's leading zero dropped when |f| is below
// 1e-6 or at least 1e21. It panics with json's error on NaN or ±Inf.
func AppendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		panic(fmt.Sprintf("jsonwire: %v", err))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 becomes e-7, as in json.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// scanner reads the encoders' own form of a JSON value. Any byte it does
// not expect marks it bad, after which every read is a no-op; a decoder
// that ends with the scanner bad or short of the end hands the whole
// input to json.Unmarshal instead. It reads a string, so the strings it
// decodes are slices of its input, not copies.
type scanner struct {
	data string
	i    int
	bad  bool
}

// next is the unread byte, or 0 at the end.
func (s *scanner) next() byte {
	if s.bad || s.i >= len(s.data) {
		return 0
	}
	return s.data[s.i]
}

// want consumes c.
func (s *scanner) want(c byte) {
	if s.next() == c && c != 0 {
		s.i++
	} else {
		s.bad = true
	}
}

// field reports whether the open object's next member is named key, and
// if so consumes its name and colon, and the comma before it unless it
// is the first member.
func (s *scanner) field(key string) bool {
	if s.bad || s.i == 0 {
		return false
	}
	j := s.i
	if s.data[j-1] != '{' {
		if j >= len(s.data) || s.data[j] != ',' {
			return false
		}
		j++
	}
	end := j + len(key) + 3
	if end > len(s.data) || s.data[j] != '"' || s.data[j+1:end-2] != key || s.data[end-2] != '"' || s.data[end-1] != ':' {
		return false
	}
	s.i = end
	return true
}

// str reads a string of printable ASCII without escapes.
func (s *scanner) str() string {
	s.want('"')
	if s.bad {
		return ""
	}
	start := s.i
	for ; s.i < len(s.data); s.i++ {
		switch c := s.data[s.i]; {
		case c == '"':
			v := s.data[start:s.i]
			s.i++
			return v
		case c < 0x20 || c > 0x7e || c == '\\':
			s.bad = true
			return ""
		}
	}
	s.bad = true
	return ""
}

// num reads a JSON number, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
// as json.Unmarshal reads one into a float64; one out of float64's range
// marks the scanner bad, as json.Unmarshal refuses it.
func (s *scanner) num() float64 {
	if s.bad {
		return 0
	}
	start := s.i
	if s.next() == '-' {
		s.i++
	}
	if s.next() == '0' {
		s.i++
	} else if !s.digits() {
		s.bad = true
		return 0
	}
	if s.next() == '.' {
		s.i++
		if !s.digits() {
			s.bad = true
			return 0
		}
	}
	if c := s.next(); c == 'e' || c == 'E' {
		s.i++
		if c := s.next(); c == '+' || c == '-' {
			s.i++
		}
		if !s.digits() {
			s.bad = true
			return 0
		}
	}
	f, err := strconv.ParseFloat(s.data[start:s.i], 64)
	if err != nil {
		s.bad = true
		return 0
	}
	return f
}

// digits consumes a run of decimal digits and reports whether there was
// at least one.
func (s *scanner) digits() bool {
	start := s.i
	for c := s.next(); c >= '0' && c <= '9'; c = s.next() {
		s.i++
	}
	return s.i > start
}

// end reports whether the scanner read the whole input in the fast form.
func (s *scanner) end() bool { return !s.bad && s.i == len(s.data) }

// unmarshal is the fallback decoder: json.Unmarshal into a fresh T.
func unmarshal[T any](data []byte) (T, error) {
	var v T
	err := json.Unmarshal(data, &v)
	return v, err
}
