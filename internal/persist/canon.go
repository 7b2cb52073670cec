package persist

import (
	"math"
	"strconv"
)

// Canonical-shape JSON: the primitives every bulk codec in the tree is
// built from — the WAL record here (record.go), the checkpoint
// (checkpoint.go) and the fleet heartbeat (internal/fleet).
//
// Each codec pairs an appender that writes exactly the bytes
// json.Marshal writes for its type with a scanner that reads that one
// shape back without reflection, and hands anything else — an escape,
// whitespace, another field order, a number json.Marshal would not
// write — to encoding/json. So the bytes are json.Marshal's, and the
// accepted inputs, decoded values and error texts are encoding/json's,
// in every case.

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

// AppendString appends s as a JSON string; false means s has a byte
// that is not plain and nothing usable was appended.
func AppendString(buf []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			return buf, false
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"'), true
}

// AppendStrings appends keys as json.Marshal writes a []string: null
// for nil, [] for empty, ["k",…] otherwise.
func AppendStrings(buf []byte, keys []string) ([]byte, bool) {
	if keys == nil {
		return append(buf, "null"...), true
	}
	sep := byte('[')
	for _, k := range keys {
		buf = append(buf, sep)
		var ok bool
		if buf, ok = AppendString(buf, k); !ok {
			return buf, false
		}
		sep = ','
	}
	if sep == '[' {
		buf = append(buf, '[')
	}
	return append(buf, ']'), true
}

// AppendList appends name and keys for a non-empty list and nothing
// for an empty one: an omitempty []string field, name being its
// ,"field": prefix.
func AppendList(buf []byte, name string, keys []string) ([]byte, bool) {
	if len(keys) == 0 {
		return buf, true
	}
	return AppendStrings(append(buf, name...), keys)
}

// Cursor is a scanner's position in a payload. A number, string or
// list that is not in the canonical form sets bad and the scan carries
// on to its end, where End reads it once. Strings and list keys are
// views into one string copy of the payload, made when the first is
// met.
type Cursor struct {
	p   []byte
	s   string
	i   int
	bad bool
}

// NewCursor starts a scan of p.
func NewCursor(p []byte) Cursor { return Cursor{p: p} }

// End reports whether the scan met nothing out of shape and consumed
// the whole payload.
func (c *Cursor) End() bool { return !c.bad && c.i == len(c.p) }

// Lit consumes tok if it is next.
func (c *Cursor) Lit(tok string) bool {
	if len(c.p)-c.i < len(tok) || string(c.p[c.i:c.i+len(tok)]) != tok {
		return false
	}
	c.i += len(tok)
	return true
}

// Uint consumes a decimal as json.Marshal writes one: digits only, no
// leading zero, at most max.
func (c *Cursor) Uint(max uint64) (n uint64) {
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

// Int is Uint with an optional minus sign; the one negative whose
// magnitude exceeds max is left to encoding/json.
func (c *Cursor) Int(max uint64) int64 {
	if c.Lit(`-`) {
		return -int64(c.Uint(max))
	}
	return int64(c.Uint(max))
}

// Uints consumes [N,…] of one or more decimals, appending each to ns.
func (c *Cursor) Uints(ns []uint64) []uint64 {
	if !c.Lit(`[`) {
		c.bad = true
		return ns
	}
	for {
		ns = append(ns, c.Uint(math.MaxUint64))
		if !c.Lit(`,`) {
			if !c.Lit(`]`) {
				c.bad = true
			}
			return ns
		}
	}
}

// view makes the payload's string copy the first time a string is met.
func (c *Cursor) view() string {
	if c.s == "" {
		c.s = string(c.p)
	}
	return c.s
}

// Str consumes "…" of plain bytes and returns it as a view.
func (c *Cursor) Str() string {
	if !c.Lit(`"`) {
		c.bad = true
		return ""
	}
	start := c.i
	for c.i < len(c.p) && plain[c.p[c.i]] {
		c.i++
	}
	if !c.Lit(`"`) {
		c.bad = true
		return ""
	}
	return c.view()[start : c.i-1]
}

// List consumes ["k",…] of one or more plain strings, appending each to
// keys as a view.
func (c *Cursor) List(keys []string) []string {
	if !c.Lit(`["`) {
		c.bad = true
		return keys
	}
	s := c.view()
	for {
		// The hot loop of recovery and of a rejoin, over locals so it
		// runs in registers.
		p, i := c.p, c.i
		for i < len(p) && plain[p[i]] {
			i++
		}
		if i == len(p) || p[i] != '"' {
			c.bad = true
			return keys
		}
		keys = append(keys, s[c.i:i])
		c.i = i + 1
		if !c.Lit(`,"`) {
			if !c.Lit(`]`) {
				c.bad = true
			}
			return keys
		}
	}
}

// float consumes a number in JSON's grammar and parses it as
// encoding/json does, with strconv.ParseFloat; a number ParseFloat
// refuses (out of range) is left to encoding/json.
func (c *Cursor) float() float64 {
	p, i := c.p, c.i
	digits := func() bool {
		start := i
		for i < len(p) && p[i]-'0' <= 9 {
			i++
		}
		return i > start
	}
	if i < len(p) && p[i] == '-' {
		i++
	}
	switch {
	case i < len(p) && p[i] == '0':
		i++
	case !digits():
		c.bad = true
		return 0
	}
	if i < len(p) && p[i] == '.' {
		i++
		if !digits() {
			c.bad = true
			return 0
		}
	}
	if i < len(p) && (p[i] == 'e' || p[i] == 'E') {
		i++
		if i < len(p) && (p[i] == '+' || p[i] == '-') {
			i++
		}
		if !digits() {
			c.bad = true
			return 0
		}
	}
	f, err := strconv.ParseFloat(string(p[c.i:i]), 64)
	if err != nil {
		c.bad = true
		return 0
	}
	c.i = i
	return f
}

// appendFloat appends f as json.Marshal writes a float64: 'f' format
// for 0 and for 1e-6 <= |f| < 1e21, 'e' otherwise with a leading zero
// of a two-digit exponent dropped. false means f is NaN or an infinity,
// which json.Marshal refuses.
func appendFloat(buf []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return buf, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf, true
}
