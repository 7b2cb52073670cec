package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"

	"repro/internal/persist"
)

// The heartbeat frame: one HeartbeatRequest as JSON, with the WAL
// record codec's treatment (persist's canon.go). The shape json.Marshal
// writes is
//
//	{"id":"…","gen":N,"delta":{"from":N,"to":N[,"full":true]
//	 [,"upserts":[{"id":N,"version":N,"size":N[,"packages":["k",…]]},…]]
//	 [,"removes":[N,…]]}}
//
// The agent writes it with appendHeartbeat, the master reads it with
// scanHeartbeat; a string that needs an escape is marshalled by
// encoding/json, and any other body — an older or foreign agent's
// whitespace, another field order, [] or null, trailing bytes — is
// decoded by the json.Decoder the master always ran. So the bytes on
// the wire, the bodies accepted, the values and the error texts are
// the ones encoding/json gives, and a full-directory rejoin costs the
// master one pass over the body. Package keys come out as views into
// one copy of the body; the mirror interns them (KeyDict.id), so it
// keeps none.

// appendHeartbeat appends req as JSON; false means a string in it is
// not plain and what was appended is to be discarded.
func appendHeartbeat(buf []byte, req *HeartbeatRequest) ([]byte, bool) {
	buf, ok := persist.AppendString(append(buf, `{"id":`...), req.ID)
	if !ok {
		return buf, false
	}
	buf = strconv.AppendUint(append(buf, `,"gen":`...), req.Gen, 10)
	d := &req.Delta
	buf = strconv.AppendUint(append(buf, `,"delta":{"from":`...), d.From, 10)
	buf = strconv.AppendUint(append(buf, `,"to":`...), d.To, 10)
	if d.Full {
		buf = append(buf, `,"full":true`...)
	}
	if len(d.Upserts) > 0 {
		sep := `,"upserts":[`
		for i := range d.Upserts {
			e := &d.Upserts[i]
			buf = strconv.AppendUint(append(append(buf, sep...), `{"id":`...), e.ID, 10)
			buf = strconv.AppendUint(append(buf, `,"version":`...), e.Version, 10)
			buf = strconv.AppendInt(append(buf, `,"size":`...), e.Size, 10)
			if buf, ok = persist.AppendList(buf, `,"packages":`, e.Packages); !ok {
				return buf, false
			}
			buf = append(buf, '}')
			sep = ","
		}
		buf = append(buf, ']')
	}
	if len(d.Removes) > 0 {
		sep := `,"removes":[`
		for _, id := range d.Removes {
			buf = strconv.AppendUint(append(buf, sep...), id, 10)
			sep = ","
		}
		buf = append(buf, ']')
	}
	return append(buf, "}}"...), true
}

// heartbeatBody is what the agent hands the client for req: the
// encoded frame, or req itself for the client's json.Marshal when a
// string needs an escape.
func heartbeatBody(req *HeartbeatRequest) any {
	size := 128 + 21*len(req.Delta.Removes)
	for _, e := range req.Delta.Upserts {
		size += 80
		for _, k := range e.Packages {
			size += len(k) + 3
		}
	}
	if buf, ok := appendHeartbeat(make([]byte, 0, size), req); ok {
		return buf
	}
	return req
}

// maxBodyHint is as far as a declared length sizes the read buffer up
// front; a longer body grows the buffer as it arrives.
const maxBodyHint = 4 << 20

// readHeartbeat reads a heartbeat body whole and decodes it. sizeHint
// is its declared length, negative when unknown.
func readHeartbeat(src io.Reader, sizeHint int64) (HeartbeatRequest, error) {
	var body bytes.Buffer
	body.Grow(int(min(max(sizeHint, 0), maxBodyHint)) + bytes.MinRead)
	_, readErr := body.ReadFrom(src)
	return decodeHeartbeat(body.Bytes(), readErr)
}

// decodeHeartbeat decodes a heartbeat body, readErr being the error
// that cut reading it short, if any. The error is the one the master's
// json.Decoder gave over the body stream.
func decodeHeartbeat(body []byte, readErr error) (HeartbeatRequest, error) {
	if readErr == nil {
		if req, ok := scanHeartbeat(body); ok {
			return req, nil
		}
	}
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		src = io.MultiReader(src, failingReader{readErr})
	}
	var req HeartbeatRequest
	err := json.NewDecoder(src).Decode(&req)
	return req, err
}

// failingReader replays a body read error to the reference decoder.
type failingReader struct{ err error }

func (f failingReader) Read([]byte) (int, error) { return 0, f.err }

// scanHeartbeat recognises the canonical shape. false means the body is
// something else, not that it is invalid.
func scanHeartbeat(p []byte) (req HeartbeatRequest, ok bool) {
	c := persist.NewCursor(p)
	if !c.Lit(`{"id":`) {
		return req, false
	}
	req.ID = c.Str()
	if !c.Lit(`,"gen":`) {
		return req, false
	}
	req.Gen = c.Uint(math.MaxUint64)
	d := &req.Delta
	if !c.Lit(`,"delta":{"from":`) {
		return req, false
	}
	d.From = c.Uint(math.MaxUint64)
	if !c.Lit(`,"to":`) {
		return req, false
	}
	d.To = c.Uint(math.MaxUint64)
	d.Full = c.Lit(`,"full":true`)
	if c.Lit(`,"upserts":[`) {
		// Every entry and every key of the frame in one slice each, sized
		// from the separators (which no plain key holds).
		entries := bytes.Count(p, []byte(`{"id":`))
		d.Upserts = make([]DirEntry, 0, entries)
		keys := make([]string, 0, bytes.Count(p, []byte(`","`))+entries)
		for {
			var e DirEntry
			if !c.Lit(`{"id":`) {
				return req, false
			}
			e.ID = c.Uint(math.MaxUint64)
			if !c.Lit(`,"version":`) {
				return req, false
			}
			e.Version = c.Uint(math.MaxUint64)
			if !c.Lit(`,"size":`) {
				return req, false
			}
			e.Size = c.Int(math.MaxInt64)
			if c.Lit(`,"packages":`) {
				start := len(keys)
				keys = c.List(keys)
				if mutantEnabled("dirscan") && len(keys) > start {
					keys = keys[:len(keys)-1]
				}
				e.Packages = keys[start:len(keys):len(keys)]
			}
			if !c.Lit(`}`) {
				return req, false
			}
			d.Upserts = append(d.Upserts, e)
			if !c.Lit(`,`) {
				break
			}
		}
		if !c.Lit(`]`) {
			return req, false
		}
	}
	if c.Lit(`,"removes":`) {
		d.Removes = c.Uints(nil)
	}
	if !c.Lit(`}}`) || !c.End() {
		return req, false
	}
	return req, true
}
