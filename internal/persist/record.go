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

// plain marks the bytes json.Marshal copies into a string unescaped and
// json.Unmarshal reads back as themselves: ASCII from space to DEL
// except the quote, the backslash and the three json.Marshal escapes
// for HTML.
var plain = func() (t [256]bool) {
	for b := 0x20; b < 0x80; b++ {
		t[b] = true
	}
	for _, b := range []byte(`"\<>&`) {
		t[b] = false
	}
	return t
}()

// appendString appends s as a JSON string; false means s has a byte
// that is not plain and nothing usable was appended.
func appendString(buf []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			return buf, false
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"'), true
}

// appendList appends ,"name":["k",…] for a non-empty list.
func appendList(buf []byte, name string, keys []string) ([]byte, bool) {
	if len(keys) == 0 {
		return buf, true
	}
	buf = append(buf, name...)
	sep := byte('[')
	for _, k := range keys {
		buf = append(buf, sep)
		var ok bool
		if buf, ok = appendString(buf, k); !ok {
			return buf, false
		}
		sep = ','
	}
	return append(buf, ']'), true
}

// appendRecord appends mut's payload to buf in place. false means one
// of its strings is not plain: what was appended is to be discarded and
// the record marshalled by encoding/json.
func appendRecord(buf []byte, mut core.Mutation) ([]byte, bool) {
	buf = append(buf, `{"kind":`...)
	buf, ok := appendString(buf, string(mut.Kind))
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
	if buf, ok = appendList(buf, `,"packages":`, mut.Packages); !ok {
		return buf, false
	}
	added := mut.Added
	if mutantEnabled("deltaoverlap") && len(added) > 0 {
		added = append(added[:len(added):len(added)], added[0])
	}
	if buf, ok = appendList(buf, `,"added":`, added); !ok {
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
	c := recordCursor{p: p}
	if !c.lit(`{"kind":"`) {
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
	if mut.Kind == "" || !c.lit(`","image_id":`) {
		return mut, false
	}
	mut.ImageID = c.uint(math.MaxUint64)
	if c.lit(`,"last_use":`) {
		mut.LastUse = c.uint(math.MaxUint64)
	}
	if c.lit(`,"version":`) {
		mut.Version = c.uint(math.MaxUint64)
	}
	if c.lit(`,"merges":`) {
		mut.Merges = int(c.int(math.MaxInt))
	}
	if c.lit(`,"request_bytes":`) {
		mut.RequestBytes = c.int(math.MaxInt64)
	}
	keys, packages := d.keys[:0], 0
	if c.lit(`,"packages":`) {
		keys = c.list(keys)
		packages = len(keys)
	}
	if c.lit(`,"added":`) {
		keys = c.list(keys)
		if mutantEnabled("walscan") && len(keys)-packages >= 2 {
			keys = keys[:len(keys)-1]
		}
	}
	if c.bad || !c.lit(`}`) || c.i != len(p) {
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

// recordCursor is the scanner's position in a payload. A number or a
// list that is not in the canonical form sets bad and the scan carries
// on to its end, where bad is read once.
type recordCursor struct {
	p   []byte
	s   string // the payload as a string, made when the first list is met
	i   int
	bad bool
}

// lit consumes tok if it is next.
func (c *recordCursor) lit(tok string) bool {
	if len(c.p)-c.i < len(tok) || string(c.p[c.i:c.i+len(tok)]) != tok {
		return false
	}
	c.i += len(tok)
	return true
}

// uint consumes a decimal as json.Marshal writes one: digits only, no
// leading zero, at most max.
func (c *recordCursor) uint(max uint64) (n uint64) {
	start := c.i
	for c.i < len(c.p) {
		d := uint64(c.p[c.i] - '0')
		if d > 9 {
			break
		}
		if n > (max-d)/10 {
			c.bad = true
			return 0
		}
		n = n*10 + d
		c.i++
	}
	if c.i == start || (c.p[start] == '0' && c.i-start > 1) {
		c.bad = true
	}
	return n
}

// int is uint with an optional minus sign; the one negative whose
// magnitude exceeds max is left to encoding/json.
func (c *recordCursor) int(max uint64) int64 {
	if c.lit(`-`) {
		return -int64(c.uint(max))
	}
	return int64(c.uint(max))
}

// list consumes ["k",…] of one or more plain strings, appending each to
// keys as a view into c.s.
func (c *recordCursor) list(keys []string) []string {
	if !c.lit(`["`) {
		c.bad = true
		return keys
	}
	if c.s == "" {
		c.s = string(c.p)
	}
	for {
		// The hot loop of recovery, over locals so it runs in registers.
		p, i := c.p, c.i
		for i < len(p) && plain[p[i]] {
			i++
		}
		if i == len(p) || p[i] != '"' {
			c.bad = true
			return keys
		}
		keys = append(keys, c.s[c.i:i])
		c.i = i + 1
		if !c.lit(`,"`) {
			if !c.lit(`]`) {
				c.bad = true
			}
			return keys
		}
	}
}
