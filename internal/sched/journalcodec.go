package sched

import (
	"strconv"

	"detournet/internal/jsonwire"
	"detournet/internal/sdk"
)

// Journal record encoding. A record's payload is, by contract, exactly
// the bytes encoding/json.Marshal gives for it, and replay decodes it
// with json.Unmarshal. The journal writes a record at every checkpoint
// of every transfer, so the encoders below append those bytes into one
// reused buffer with jsonwire's primitives instead of going through
// reflection.
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
	b = jsonwire.AppendString(b, j.Tenant)
	b = append(b, `,"Client":`...)
	b = jsonwire.AppendString(b, j.Client)
	b = append(b, `,"Provider":`...)
	b = jsonwire.AppendString(b, j.Provider)
	b = append(b, `,"AltProviders":`...)
	b = jsonwire.AppendStrings(b, j.AltProviders)
	b = append(b, `,"Name":`...)
	b = jsonwire.AppendString(b, j.Name)
	b = append(b, `,"Size":`...)
	b = jsonwire.AppendFloat(b, j.Size)
	b = append(b, `,"MD5":`...)
	b = jsonwire.AppendString(b, j.MD5)
	b = append(b, `,"Mode":`...)
	b = strconv.AppendInt(b, int64(j.Mode), 10)
	b = append(b, `,"MaxPaths":`...)
	b = strconv.AppendInt(b, int64(j.MaxPaths), 10)
	b = append(b, `,"Priority":`...)
	b = strconv.AppendInt(b, int64(j.Priority), 10)
	b = append(b, `,"Deadline":`...)
	b = jsonwire.AppendFloat(b, j.Deadline)
	return append(b, '}')
}

func (m *attemptRec) appendJSON(b []byte) []byte {
	b = append(b, `{"Seq":`...)
	b = strconv.AppendInt(b, m.Seq, 10)
	b = append(b, `,"Name":`...)
	b = jsonwire.AppendString(b, m.Name)
	b = append(b, `,"Attempt":`...)
	b = strconv.AppendInt(b, int64(m.Attempt), 10)
	b = append(b, `,"AttemptID":`...)
	b = jsonwire.AppendString(b, m.AttemptID)
	b = append(b, `,"RouteKind":`...)
	b = strconv.AppendInt(b, int64(m.RouteKind), 10)
	b = append(b, `,"RouteVia":`...)
	b = jsonwire.AppendString(b, m.RouteVia)
	return append(b, '}')
}

func (m *ckptRec) appendJSON(b []byte) []byte {
	b = append(b, `{"Seq":`...)
	b = strconv.AppendInt(b, m.Seq, 10)
	b = append(b, `,"Name":`...)
	b = jsonwire.AppendString(b, m.Name)
	b = append(b, `,"Hop1Via":`...)
	b = jsonwire.AppendString(b, m.Hop1Via)
	b = append(b, `,"Hop1High":`...)
	b = jsonwire.AppendFloat(b, m.Hop1High)
	b = append(b, `,"HasSession":`...)
	b = strconv.AppendBool(b, m.HasSession)
	b = append(b, `,"Session":`...)
	b = appendSession(b, &m.Session)
	b = append(b, `,"Hop2High":`...)
	b = jsonwire.AppendFloat(b, m.Hop2High)
	b = append(b, `,"Resumed":`...)
	b = jsonwire.AppendFloat(b, m.Resumed)
	b = append(b, `,"Rewritten":`...)
	b = jsonwire.AppendFloat(b, m.Rewritten)
	b = append(b, `,"Repairs":`...)
	b = strconv.AppendInt(b, int64(m.Repairs), 10)
	b = append(b, `,"Watermark":`...)
	b = jsonwire.AppendFloat(b, m.Watermark)
	return append(b, '}')
}

func appendSession(b []byte, s *sdk.SessionToken) []byte {
	b = append(b, `{"Provider":`...)
	b = jsonwire.AppendString(b, s.Provider)
	b = append(b, `,"Ref":`...)
	b = jsonwire.AppendString(b, s.Ref)
	b = append(b, `,"Name":`...)
	b = jsonwire.AppendString(b, s.Name)
	b = append(b, `,"Size":`...)
	b = jsonwire.AppendFloat(b, s.Size)
	b = append(b, `,"Offset":`...)
	b = jsonwire.AppendFloat(b, s.Offset)
	b = append(b, `,"MD5":`...)
	b = jsonwire.AppendString(b, s.MD5)
	return append(b, '}')
}

func (m *capRec) appendJSON(b []byte) []byte {
	b = append(b, `{"Provider":`...)
	b = jsonwire.AppendString(b, m.Provider)
	b = append(b, `,"Via":`...)
	b = jsonwire.AppendString(b, m.Via)
	b = append(b, `,"Acquire":`...)
	b = strconv.AppendBool(b, m.Acquire)
	return append(b, '}')
}

func (m *retryRec) appendJSON(b []byte) []byte {
	b = append(b, `{"Provider":`...)
	b = jsonwire.AppendString(b, m.Provider)
	if m.Earned != 0 {
		b = append(b, `,"Earned":`...)
		b = jsonwire.AppendFloat(b, m.Earned)
	}
	return append(b, '}')
}

func (m *lanesRec) appendJSON(b []byte) []byte {
	b = append(b, `{"Seq":`...)
	b = strconv.AppendInt(b, m.Seq, 10)
	b = append(b, `,"Name":`...)
	b = jsonwire.AppendString(b, m.Name)
	b = append(b, `,"Paths":`...)
	b = jsonwire.AppendStrings(b, m.Paths)
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
	b = jsonwire.AppendString(b, m.Name)
	b = append(b, `,"OK":`...)
	b = strconv.AppendBool(b, m.OK)
	b = append(b, `,"Err":`...)
	b = jsonwire.AppendString(b, m.Err)
	b = append(b, `,"RouteKind":`...)
	b = strconv.AppendInt(b, int64(m.RouteKind), 10)
	b = append(b, `,"RouteVia":`...)
	b = jsonwire.AppendString(b, m.RouteVia)
	b = append(b, `,"Seconds":`...)
	b = jsonwire.AppendFloat(b, m.Seconds)
	b = append(b, `,"Attempts":`...)
	b = strconv.AppendInt(b, int64(m.Attempts), 10)
	b = append(b, `,"CacheHit":`...)
	b = strconv.AppendBool(b, m.CacheHit)
	b = append(b, `,"Resumed":`...)
	b = jsonwire.AppendFloat(b, m.Resumed)
	b = append(b, `,"Rewritten":`...)
	b = jsonwire.AppendFloat(b, m.Rewritten)
	b = append(b, `,"Repairs":`...)
	b = strconv.AppendInt(b, int64(m.Repairs), 10)
	b = append(b, `,"Hedged":`...)
	b = strconv.AppendBool(b, m.Hedged)
	b = append(b, `,"HedgeWon":`...)
	b = strconv.AppendBool(b, m.HedgeWon)
	b = append(b, `,"Reroutes":`...)
	b = strconv.AppendInt(b, int64(m.Reroutes), 10)
	b = append(b, `,"Parked":`...)
	b = jsonwire.AppendFloat(b, m.Parked)
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
	b = jsonwire.AppendCounts(b, m.RetrySpent, jsonwire.AppendFloat)
	b = append(b, `,"CapsHeld":`...)
	b = jsonwire.AppendCounts(b, m.CapsHeld, func(b []byte, n int) []byte { return strconv.AppendInt(b, int64(n), 10) })
	return append(b, '}')
}

func (pj *PendingJob) appendJSON(b []byte) []byte {
	b = append(b, `{"Seq":`...)
	b = strconv.AppendInt(b, pj.Seq, 10)
	b = append(b, `,"Job":`...)
	b = pj.Job.appendJSON(b)
	b = append(b, `,"AttemptID":`...)
	b = jsonwire.AppendString(b, pj.AttemptID)
	b = append(b, `,"PriorAttempts":`...)
	b = strconv.AppendInt(b, int64(pj.PriorAttempts), 10)
	b = append(b, `,"HasCkpt":`...)
	b = strconv.AppendBool(b, pj.HasCkpt)
	b = append(b, `,"Ck":`...)
	b = pj.Ck.appendJSON(b)
	return append(b, '}')
}
