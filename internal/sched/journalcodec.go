package sched

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"detournet/internal/sdk"
)

// Journal record encoding. A record's payload is, by contract, exactly
// the bytes encoding/json.Marshal gives for it, and replay decodes it
// with json.Unmarshal. The journal writes a record at every checkpoint
// of every transfer, so the encoders below append those bytes into one
// reused buffer instead of going through reflection.
// TestJournalCodecMatchesMarshal and FuzzJournalRecord hold them to
// json.Marshal byte for byte: a field added to a record type must be
// added to its encoder, in declaration order.

func (m *submitRec) appendJSON(b []byte) []byte {
	b = append(b, `{"Seq":`...)
	b = strconv.AppendInt(b, m.Seq, 10)
	b = append(b, `,"Job":`...)
	b = m.Job.appendJSON(b)
	return append(b, '}')
}

func (j *Job) appendJSON(b []byte) []byte {
	b = append(b, `{"Tenant":`...)
	b = appendString(b, j.Tenant)
	b = append(b, `,"Client":`...)
	b = appendString(b, j.Client)
	b = append(b, `,"Provider":`...)
	b = appendString(b, j.Provider)
	b = append(b, `,"AltProviders":`...)
	b = appendStrings(b, j.AltProviders)
	b = append(b, `,"Name":`...)
	b = appendString(b, j.Name)
	b = append(b, `,"Size":`...)
	b = appendFloat(b, j.Size)
	b = append(b, `,"MD5":`...)
	b = appendString(b, j.MD5)
	b = append(b, `,"Mode":`...)
	b = strconv.AppendInt(b, int64(j.Mode), 10)
	b = append(b, `,"MaxPaths":`...)
	b = strconv.AppendInt(b, int64(j.MaxPaths), 10)
	b = append(b, `,"Priority":`...)
	b = strconv.AppendInt(b, int64(j.Priority), 10)
	b = append(b, `,"Deadline":`...)
	b = appendFloat(b, j.Deadline)
	return append(b, '}')
}

func (m *attemptRec) appendJSON(b []byte) []byte {
	b = append(b, `{"Seq":`...)
	b = strconv.AppendInt(b, m.Seq, 10)
	b = append(b, `,"Name":`...)
	b = appendString(b, m.Name)
	b = append(b, `,"Attempt":`...)
	b = strconv.AppendInt(b, int64(m.Attempt), 10)
	b = append(b, `,"AttemptID":`...)
	b = appendString(b, m.AttemptID)
	b = append(b, `,"RouteKind":`...)
	b = strconv.AppendInt(b, int64(m.RouteKind), 10)
	b = append(b, `,"RouteVia":`...)
	b = appendString(b, m.RouteVia)
	return append(b, '}')
}

func (m *ckptRec) appendJSON(b []byte) []byte {
	b = append(b, `{"Seq":`...)
	b = strconv.AppendInt(b, m.Seq, 10)
	b = append(b, `,"Name":`...)
	b = appendString(b, m.Name)
	b = append(b, `,"Hop1Via":`...)
	b = appendString(b, m.Hop1Via)
	b = append(b, `,"Hop1High":`...)
	b = appendFloat(b, m.Hop1High)
	b = append(b, `,"HasSession":`...)
	b = strconv.AppendBool(b, m.HasSession)
	b = append(b, `,"Session":`...)
	b = appendSession(b, &m.Session)
	b = append(b, `,"Hop2High":`...)
	b = appendFloat(b, m.Hop2High)
	b = append(b, `,"Resumed":`...)
	b = appendFloat(b, m.Resumed)
	b = append(b, `,"Rewritten":`...)
	b = appendFloat(b, m.Rewritten)
	b = append(b, `,"Repairs":`...)
	b = strconv.AppendInt(b, int64(m.Repairs), 10)
	b = append(b, `,"Watermark":`...)
	b = appendFloat(b, m.Watermark)
	return append(b, '}')
}

func appendSession(b []byte, s *sdk.SessionToken) []byte {
	b = append(b, `{"Provider":`...)
	b = appendString(b, s.Provider)
	b = append(b, `,"Ref":`...)
	b = appendString(b, s.Ref)
	b = append(b, `,"Name":`...)
	b = appendString(b, s.Name)
	b = append(b, `,"Size":`...)
	b = appendFloat(b, s.Size)
	b = append(b, `,"Offset":`...)
	b = appendFloat(b, s.Offset)
	b = append(b, `,"MD5":`...)
	b = appendString(b, s.MD5)
	return append(b, '}')
}

func (m *capRec) appendJSON(b []byte) []byte {
	b = append(b, `{"Provider":`...)
	b = appendString(b, m.Provider)
	b = append(b, `,"Via":`...)
	b = appendString(b, m.Via)
	b = append(b, `,"Acquire":`...)
	b = strconv.AppendBool(b, m.Acquire)
	return append(b, '}')
}

func (m *retryRec) appendJSON(b []byte) []byte {
	b = append(b, `{"Provider":`...)
	b = appendString(b, m.Provider)
	if m.Earned != 0 {
		b = append(b, `,"Earned":`...)
		b = appendFloat(b, m.Earned)
	}
	return append(b, '}')
}

func (m *lanesRec) appendJSON(b []byte) []byte {
	b = append(b, `{"Seq":`...)
	b = strconv.AppendInt(b, m.Seq, 10)
	b = append(b, `,"Name":`...)
	b = appendString(b, m.Name)
	b = append(b, `,"Paths":`...)
	b = appendStrings(b, m.Paths)
	b = append(b, `,"Chunks":`...)
	if m.Chunks == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, c := range m.Chunks {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(c), 10)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

func (m *finishRec) appendJSON(b []byte) []byte {
	b = append(b, `{"Seq":`...)
	b = strconv.AppendInt(b, m.Seq, 10)
	b = append(b, `,"Name":`...)
	b = appendString(b, m.Name)
	b = append(b, `,"OK":`...)
	b = strconv.AppendBool(b, m.OK)
	b = append(b, `,"Err":`...)
	b = appendString(b, m.Err)
	b = append(b, `,"RouteKind":`...)
	b = strconv.AppendInt(b, int64(m.RouteKind), 10)
	b = append(b, `,"RouteVia":`...)
	b = appendString(b, m.RouteVia)
	b = append(b, `,"Seconds":`...)
	b = appendFloat(b, m.Seconds)
	b = append(b, `,"Attempts":`...)
	b = strconv.AppendInt(b, int64(m.Attempts), 10)
	b = append(b, `,"CacheHit":`...)
	b = strconv.AppendBool(b, m.CacheHit)
	b = append(b, `,"Resumed":`...)
	b = appendFloat(b, m.Resumed)
	b = append(b, `,"Rewritten":`...)
	b = appendFloat(b, m.Rewritten)
	b = append(b, `,"Repairs":`...)
	b = strconv.AppendInt(b, int64(m.Repairs), 10)
	b = append(b, `,"Hedged":`...)
	b = strconv.AppendBool(b, m.Hedged)
	b = append(b, `,"HedgeWon":`...)
	b = strconv.AppendBool(b, m.HedgeWon)
	b = append(b, `,"Reroutes":`...)
	b = strconv.AppendInt(b, int64(m.Reroutes), 10)
	b = append(b, `,"Parked":`...)
	b = appendFloat(b, m.Parked)
	b = append(b, `,"Late":`...)
	b = strconv.AppendBool(b, m.Late)
	b = append(b, `,"Degraded":`...)
	b = strconv.AppendBool(b, m.Degraded)
	return append(b, '}')
}

func (m *snapshotRec) appendJSON(b []byte) []byte {
	b = append(b, `{"NextSeq":`...)
	b = strconv.AppendInt(b, m.NextSeq, 10)
	b = append(b, `,"Pending":`...)
	if m.Pending == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range m.Pending {
			if i > 0 {
				b = append(b, ',')
			}
			b = m.Pending[i].appendJSON(b)
		}
		b = append(b, ']')
	}
	b = append(b, `,"Finished":`...)
	if m.Finished == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range m.Finished {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"Job":`...)
			b = m.Finished[i].Job.appendJSON(b)
			b = append(b, `,"Finish":`...)
			b = m.Finished[i].Finish.appendJSON(b)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"RetrySpent":`...)
	b = appendCounts(b, m.RetrySpent, appendFloat)
	b = append(b, `,"CapsHeld":`...)
	b = appendCounts(b, m.CapsHeld, func(b []byte, n int) []byte { return strconv.AppendInt(b, int64(n), 10) })
	return append(b, '}')
}

func (pj *PendingJob) appendJSON(b []byte) []byte {
	b = append(b, `{"Seq":`...)
	b = strconv.AppendInt(b, pj.Seq, 10)
	b = append(b, `,"Job":`...)
	b = pj.Job.appendJSON(b)
	b = append(b, `,"AttemptID":`...)
	b = appendString(b, pj.AttemptID)
	b = append(b, `,"PriorAttempts":`...)
	b = strconv.AppendInt(b, int64(pj.PriorAttempts), 10)
	b = append(b, `,"HasCkpt":`...)
	b = strconv.AppendBool(b, pj.HasCkpt)
	b = append(b, `,"Ck":`...)
	b = pj.Ck.appendJSON(b)
	return append(b, '}')
}

// appendString appends s as a JSON string. A string of printable ASCII
// that needs no escape is written as is; anything else — a quote, a
// backslash, one of json's HTML escapes <, > and &, a control byte or
// any non-ASCII byte — goes through json.Marshal, which also rewrites
// invalid UTF-8 and escapes U+2028 and U+2029.
func appendString(b []byte, s string) []byte {
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

// appendStrings appends a string slice; nil is null, as in json.
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

// appendCounts appends a map in json's order: sorted keys, nil as null;
// appendV writes each value.
func appendCounts[V any](b []byte, m map[string]V, appendV func([]byte, V) []byte) []byte {
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
		b = appendString(b, k)
		b = append(b, ':')
		b = appendV(b, m[k])
	}
	return append(b, '}')
}

// appendFloat appends f as encoding/json writes a float64: format 'f',
// or 'e' with the exponent's leading zero dropped when |f| is below
// 1e-6 or at least 1e21. json cannot carry NaN or ±Inf, and neither can
// the journal: one reaching a record is a simulator bug.
func appendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		panic(fmt.Sprintf("sched: journal marshal: %v", err))
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
