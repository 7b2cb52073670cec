package persist

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/pkggraph"
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
// scan reads it without reflection, resolving each key to its package
// id as it goes (core.Record). Neither guesses at
// anything else: a string json.Marshal would escape is marshalled by
// encoding/json, and a payload that departs from the shape in any way
// (an escape, whitespace, another field or field order or case, [] or
// null, a leading zero, an overflowing number, an unknown kind,
// trailing bytes) is unmarshalled by encoding/json, so accepted
// inputs, decoded values and error texts are encoding/json's in every
// case, and the bytes on disk are the ones json.Marshal would have
// produced.

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

// recordDecoder decodes record payloads into one reused record, its
// keys resolved against the repository as they are scanned.
type recordDecoder struct {
	repo *pkggraph.Repo
	rec  core.Record
	// plainIDs caches, per package id, whether the id's key is made only
	// of plain bytes: 0 not yet known, 1 plain, 2 not. It is made when
	// the first key resolves.
	plainIDs []uint8
	// reference counts the payloads that went through encoding/json.
	reference int
}

// decode decodes one payload. The record and its lists are valid until
// the next call. The error is json.Unmarshal's; a key the repository
// lacks is no error here but the record's (core.Record), whichever way
// the payload was read.
func (d *recordDecoder) decode(payload []byte) (*core.Record, error) {
	if d.scan(payload) {
		return &d.rec, nil
	}
	d.reference++
	var mut core.Mutation
	if err := json.Unmarshal(payload, &mut); err != nil {
		return nil, err
	}
	d.rec.Resolve(d.repo, mut)
	return &d.rec, nil
}

// recordKinds are the kinds the scanner knows. Their names need no
// copy; any other string goes to encoding/json, which keeps it whatever
// it holds.
var recordKinds = [...]core.MutationKind{core.MutInsert, core.MutMerge, core.MutTouch, core.MutDelete, core.MutSplit}

// scan recognises the canonical shape into d.rec. false means the
// payload is something else, not that it is invalid.
func (d *recordDecoder) scan(p []byte) bool {
	r := &d.rec
	packages, added := r.Packages[:0], r.Added[:0]
	*r = core.Record{}
	c := NewCursor(p)
	if !c.Lit(`{"kind":"`) {
		return false
	}
	kind := c.i
	for c.i < len(p) && p[c.i] != '"' {
		c.i++
	}
	for _, k := range recordKinds {
		if string(p[kind:c.i]) == string(k) {
			r.Kind = k
		}
	}
	if r.Kind == "" || !c.Lit(`","image_id":`) {
		return false
	}
	r.ImageID = c.Uint(math.MaxUint64)
	if c.Lit(`,"last_use":`) {
		r.LastUse = c.Uint(math.MaxUint64)
	}
	if c.Lit(`,"version":`) {
		r.Version = c.Uint(math.MaxUint64)
	}
	if c.Lit(`,"merges":`) {
		r.Merges = int(c.Int(math.MaxInt))
	}
	if c.Lit(`,"request_bytes":`) {
		r.RequestBytes = c.Int(math.MaxInt64)
	}
	if c.Lit(`,"packages":`) {
		packages, r.PackagesErr = d.ids(&c, packages)
	}
	if c.Lit(`,"added":`) {
		added, r.AddedErr = d.ids(&c, added)
		if mutantEnabled("walscan") && len(added) >= 2 {
			added = added[:len(added)-1]
		}
	}
	r.Packages, r.Added = packages, added
	return c.Lit(`}`) && c.End()
}

// ids consumes ["k",…] of one or more plain strings, appending the id
// of each key to ids. bytes.IndexByte finds a key's closing quote, and
// the bytes before it resolve at once when they are a repository key
// made only of plain bytes. Plain bytes the repository lacks are an
// unknown key: the error is core.UnknownPackage of the first, ids stops
// before it (as core.Record.Resolve does) and the scan goes on to the
// list's end. Anything else — an escape, a byte that is not plain —
// sets c.bad, for encoding/json to read the payload.
func (d *recordDecoder) ids(c *Cursor, ids []pkggraph.PkgID) ([]pkggraph.PkgID, error) {
	if !c.Lit(`["`) {
		c.bad = true
		return ids, nil
	}
	var err error
	for {
		q := bytes.IndexByte(c.p[c.i:], '"')
		if q < 0 {
			c.bad = true
			return ids, err
		}
		key := c.p[c.i : c.i+q]
		if id, ok := d.repo.LookupBytes(key); ok && d.plainID(id) {
			if err == nil {
				ids = append(ids, id)
			}
		} else if !plainBytes(key) {
			c.bad = true
			return ids, err
		} else if err == nil {
			err = core.UnknownPackage(string(key))
		}
		c.i += q + 1
		if !c.Lit(`,"`) {
			if !c.Lit(`]`) {
				c.bad = true
			}
			return ids, err
		}
	}
}

// plainID reports whether id's key is made only of plain bytes, looking
// at the key the first time the id is met.
func (d *recordDecoder) plainID(id pkggraph.PkgID) bool {
	if d.plainIDs == nil {
		d.plainIDs = make([]uint8, d.repo.Len())
	}
	if d.plainIDs[id] == 0 {
		d.plainIDs[id] = 2
		if plainBytes(d.repo.Key(id)) {
			d.plainIDs[id] = 1
		}
	}
	return d.plainIDs[id] == 1
}

// plainBytes reports whether every byte of key is plain.
func plainBytes[S string | []byte](key S) bool {
	for i := 0; i < len(key); i++ {
		if !plain[key[i]] {
			return false
		}
	}
	return true
}
