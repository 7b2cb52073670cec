package persist

import (
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/core"
)

// The WAL record payload: one core.Mutation as JSON.
//
// The store writes one shape over and over, the bytes json.Marshal
// emits for a Mutation whose strings need no escape:
//
//	{"kind":"…","image_id":N[,"last_use":N][,"version":N][,"merges":N]
//	 [,"request_bytes":N][,"packages":["k",…]][,"added":["k",…]]}
//
// fields in that order, no whitespace, minimal decimals, non-empty
// lists, one of the five kinds. appendRecord writes that shape and
// scan reads it, byte by byte, without reflection. Neither guesses at
// anything else: a string json.Marshal would escape is marshalled by
// encoding/json, and a payload that departs from the shape in any way
// (an escape, whitespace, another field or field order or case, [] or
// null, a leading zero, an overflowing number, an unknown kind,
// trailing bytes) is unmarshalled by encoding/json, so accepted
// inputs, decoded values and error texts are encoding/json's in every
// case, and bytes on disk and on the replication stream are the ones
// json.Marshal would have produced.

// appendRecord appends mut's payload to buf in place. false means one
// of its strings is not plain: what was appended is to be discarded and
// the record marshalled by encoding/json.
func appendRecord(buf []byte, mut core.Mutation) ([]byte, bool) {
	buf = append(buf, `{"kind":`...)
	buf, ok := AppendString(buf, string(mut.Kind))
	if !ok {
		return buf, false
	}
	buf = strconv.AppendUint(append(buf, `,"image_id":`...), mut.ImageID, 10)
	if mut.LastUse != 0 {
		buf = strconv.AppendUint(append(buf, `,"last_use":`...), mut.LastUse, 10)
	}
	if mut.Version != 0 {
		buf = strconv.AppendUint(append(buf, `,"version":`...), mut.Version, 10)
	}
	if mut.Merges != 0 {
		buf = strconv.AppendInt(append(buf, `,"merges":`...), int64(mut.Merges), 10)
	}
	if mut.RequestBytes != 0 {
		buf = strconv.AppendInt(append(buf, `,"request_bytes":`...), mut.RequestBytes, 10)
	}
	if buf, ok = AppendList(buf, `,"packages":`, mut.Packages); !ok {
		return buf, false
	}
	added := mut.Added
	if mutantEnabled("deltaoverlap") && len(added) > 0 {
		added = append(added[:len(added):len(added)], added[0])
	}
	if buf, ok = AppendList(buf, `,"added":`, added); !ok {
		return buf, false
	}
	return append(buf, '}'), true
}

// recordDecoder decodes record payloads into one reused key slice.
type recordDecoder struct {
	keys []string
	// reference counts the payloads that went through encoding/json.
	reference int
}

// decode decodes one payload. The mutation's Packages and Added are
// valid until the next call: they share the decoder's key slice (the
// strings themselves are views into one copy of the payload and may be
// kept). The error is json.Unmarshal's.
func (d *recordDecoder) decode(payload []byte) (core.Mutation, error) {
	if mut, ok := d.scan(payload); ok {
		return mut, nil
	}
	d.reference++
	var mut core.Mutation
	err := json.Unmarshal(payload, &mut)
	return mut, err
}

// recordKinds are the kinds the scanner knows. Their names need no
// copy; any other string goes to encoding/json, which keeps it whatever
// it holds.
var recordKinds = [...]core.MutationKind{core.MutInsert, core.MutMerge, core.MutTouch, core.MutDelete, core.MutSplit}

// scan recognises the canonical shape. false means the payload is
// something else, not that it is invalid.
func (d *recordDecoder) scan(p []byte) (mut core.Mutation, ok bool) {
	c := NewCursor(p)
	if !c.Lit(`{"kind":"`) {
		return mut, false
	}
	kind := c.i
	for c.i < len(p) && p[c.i] != '"' {
		c.i++
	}
	for _, k := range recordKinds {
		if string(p[kind:c.i]) == string(k) {
			mut.Kind = k
		}
	}
	if mut.Kind == "" || !c.Lit(`","image_id":`) {
		return mut, false
	}
	mut.ImageID = c.Uint(math.MaxUint64)
	if c.Lit(`,"last_use":`) {
		mut.LastUse = c.Uint(math.MaxUint64)
	}
	if c.Lit(`,"version":`) {
		mut.Version = c.Uint(math.MaxUint64)
	}
	if c.Lit(`,"merges":`) {
		mut.Merges = int(c.Int(math.MaxInt))
	}
	if c.Lit(`,"request_bytes":`) {
		mut.RequestBytes = c.Int(math.MaxInt64)
	}
	keys, packages := d.keys[:0], 0
	if c.Lit(`,"packages":`) {
		keys = c.List(keys)
		packages = len(keys)
	}
	if c.Lit(`,"added":`) {
		keys = c.List(keys)
		if mutantEnabled("walscan") && len(keys)-packages >= 2 {
			keys = keys[:len(keys)-1]
		}
	}
	if !c.Lit(`}`) || !c.End() {
		return mut, false
	}
	d.keys = keys
	if packages > 0 {
		mut.Packages = keys[:packages:packages]
	}
	if len(keys) > packages {
		mut.Added = keys[packages:]
	}
	return mut, true
}
