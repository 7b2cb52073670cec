package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"sync"

	"repro/internal/pkggraph"
	"repro/internal/telemetry"
)

// The POST /v1/request body, on the agent and on the fleet master.
//
// A batch system sends one shape over and over: the canonical
//
//	{"packages":["k",…]}   or   {"packages":["k",…],"close":true|false}
//
// with any insignificant JSON whitespace between tokens and plain keys
// (no escape, every byte in 0x20..0x7f). RequestDecoder reads the body
// once into a pooled buffer and scans that shape (key bytes eight at a
// time), handing out each key as a view into the buffer: no reflection,
// no string per key. Whatever the scan does not recognise — an escape, a
// byte outside that range, another field, order or case, null, an empty
// array, a syntax error — it does not guess at: the buffered bytes go
// through encoding/json exactly as the handlers decoded them before, so
// every verdict and error text on that path is encoding/json's own.
// Which path runs is decided by the bytes alone. The master forwards
// the bytes it received, so the agent decodes what the client sent.

const (
	// DefaultRequestBodyLimit bounds /v1/request bodies where no
	// repository is at hand to derive the bound from (the fleet master).
	DefaultRequestBodyLimit = 8 << 20
	// maxPooledBody is the largest body buffer Release keeps: one
	// oversized request must not pin its buffer in the pool.
	maxPooledBody = 1 << 20

	metricDecodeTotal = "landlord_request_decode_total"
	helpDecodeTotal   = "Decoded /v1/request bodies by decoder path (fast: canonical-shape scan; reference: encoding/json)"
)

// RequestBodyLimit derives the /v1/request body bound from the
// repository: a body naming every package once, quoted, with its
// framing, times two for whitespace, repeats and escapes.
func RequestBodyLimit(repo *pkggraph.Repo) int64 {
	n := int64(len(`{"packages":[],"close":false}`))
	for i := 0; i < repo.Len(); i++ {
		p := repo.Package(pkggraph.PkgID(i))
		// name/version/platform, two quotes and a comma
		n += int64(len(p.Name) + len(p.Version) + len(p.Platform) + 5)
	}
	return 2 * n
}

// RequestDecoder decodes /v1/request bodies for one process: it owns
// the body bound, the per-path counter and the decode span.
type RequestDecoder struct {
	limit           int64
	fast, reference *telemetry.Counter
}

// NewRequestDecoder creates a decoder refusing bodies over limit bytes
// and counting into reg.
func NewRequestDecoder(reg *telemetry.Registry, limit int64) *RequestDecoder {
	return &RequestDecoder{
		limit:     limit,
		fast:      reg.Counter(metricDecodeTotal, helpDecodeTotal, telemetry.Label{Key: "path", Value: "fast"}),
		reference: reg.Counter(metricDecodeTotal, helpDecodeTotal, telemetry.Label{Key: "path", Value: "reference"}),
	}
}

// DecodedRequest is one decoded body. Keys alias pooled storage: they
// are valid until Release.
type DecodedRequest struct {
	// Keys are the requested package keys in body order.
	Keys [][]byte
	// Close is the body's "close" member (false when absent).
	Close bool

	buf []byte
	ids []pkggraph.PkgID
}

var decodePool = sync.Pool{New: func() any { return new(DecodedRequest) }}

// Body returns the bytes the client sent.
func (d *DecodedRequest) Body() []byte { return d.buf }

// Release returns the request's storage to the pool. Keys, Body and
// resolved ids must not be used afterwards.
func (d *DecodedRequest) Release() {
	if cap(d.buf) > maxPooledBody {
		*d = DecodedRequest{}
	}
	decodePool.Put(d)
}

// Decode reads r's body, refusing one over the limit, and decodes it
// (DecodeBody). The error is an *http.MaxBytesError for a body over the
// limit and the reference decoder's error otherwise; DecodeFailure
// turns either into the response.
func (rd *RequestDecoder) Decode(w http.ResponseWriter, r *http.Request, at *telemetry.ActiveTrace, parent telemetry.SpanRef) (*DecodedRequest, error) {
	return rd.DecodeBody(http.MaxBytesReader(w, r.Body, rd.limit), min(r.ContentLength, rd.limit), at, parent)
}

// DecodeBody reads src to its end and decodes what it read, recording
// a decode span under parent. sizeHint is the expected length, negative
// when unknown.
func (rd *RequestDecoder) DecodeBody(src io.Reader, sizeHint int64, at *telemetry.ActiveTrace, parent telemetry.SpanRef) (*DecodedRequest, error) {
	span := at.Begin(telemetry.StageDecode, parent)
	defer at.End(span)
	d := decodePool.Get().(*DecodedRequest)
	readErr := d.read(src, sizeHint)
	at.AttrInt(span, "bytes", int64(len(d.buf)))
	if readErr != nil && tooLarge(readErr) != nil {
		d.Release()
		return nil, readErr
	}
	if readErr == nil && d.scan() {
		rd.fast.Inc()
		at.AttrStr(span, "path", "fast")
	} else {
		rd.reference.Inc()
		at.AttrStr(span, "path", "reference")
		if err := d.decodeReference(readErr); err != nil {
			d.Release()
			return nil, err
		}
	}
	at.AttrInt(span, "keys", int64(len(d.Keys)))
	return d, nil
}

// DecodeFailure maps a Decode error to the status and error text of
// the response.
func DecodeFailure(err error) (int, string) {
	if over := tooLarge(err); over != nil {
		return http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", over.Limit)
	}
	return http.StatusBadRequest, "decoding request: " + err.Error()
}

// tooLarge returns the body-bound violation in err, if it is one.
func tooLarge(err error) *http.MaxBytesError {
	var over *http.MaxBytesError
	errors.As(err, &over)
	return over
}

// read fills d.buf from src. One byte beyond sizeHint lets a reader
// that reports EOF on its own finish without growing the buffer; a
// declared length is trusted only up to what the pool would keep, the
// rest is grown as it arrives.
func (d *DecodedRequest) read(src io.Reader, sizeHint int64) error {
	buf := d.buf[:0]
	if need := int(min(sizeHint, maxPooledBody)) + 1; cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := src.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			d.buf = buf
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// failingReader replays a body read error to the reference decoder.
type failingReader struct{ err error }

func (f failingReader) Read([]byte) (int, error) { return 0, f.err }

// decodeReference is the decode both handlers ran before the scanner
// existed, over the same byte stream: the buffered bytes, then the read
// error if the body broke off.
func (d *DecodedRequest) decodeReference(readErr error) error {
	var src io.Reader = bytes.NewReader(d.buf)
	if readErr != nil {
		src = io.MultiReader(src, failingReader{readErr})
	}
	var body RequestBody
	if err := json.NewDecoder(src).Decode(&body); err != nil {
		return err
	}
	d.Keys = d.Keys[:0]
	for _, k := range body.Packages {
		d.Keys = append(d.Keys, []byte(k))
	}
	d.Close = body.Close
	return nil
}

// scan recognises the canonical shape in d.buf and fills Keys and Close
// from it. false means the body is something else, not that it is
// invalid; nothing it set is kept then.
func (d *DecodedRequest) scan() bool {
	c := cursor{buf: d.buf}
	if !(c.token(`{`) && c.token(`"packages"`) && c.token(`:`) && c.token(`[`)) {
		return false
	}
	buf, keys := c.buf, d.Keys[:0]
	for more := true; more; more = c.token(`,`) {
		if !c.token(`"`) {
			return false // not a string, or the empty array
		}
		i := skipPlain(buf, c.i)
		for i < len(buf) && buf[i] == '\\' && mutantEnabled("reqscan") {
			i = skipPlain(buf, i+1)
		}
		if i == len(buf) || buf[i] != '"' {
			return false // unterminated, or a byte only encoding/json may judge
		}
		keys = append(keys, buf[c.i:i:i])
		c.i = i + 1
	}
	if !c.token(`]`) {
		return false
	}
	closeSpec := false
	if c.token(`,`) {
		if !(c.token(`"close"`) && c.token(`:`)) {
			return false
		}
		if closeSpec = c.token(`true`); !closeSpec && !c.token(`false`) {
			return false
		}
	}
	if !c.token(`}`) || c.skipSpace() != len(buf) {
		return false
	}
	d.Keys, d.Close = keys, closeSpec
	return true
}

// Word masks for skipPlain: every byte 0x01, 0x20, '"', '\' and 0x80.
const (
	ones        = 0x0101010101010101
	spaces      = 0x20 * ones
	quotes      = '"' * ones
	backslashes = '\\' * ones
	highs       = 0x80 * ones
)

// skipPlain returns the offset of the first byte at or after i that is
// not a plain key byte — a '"', a '\', or a byte outside 0x20..0x7f — or
// len(buf). It tests eight bytes per load: the mask flags bytes below
// 0x20 ((w-spaces)&^w), equal to '"' or '\' (the same test on w xor the
// byte) and at or above 0x80. A borrow can flag a byte above a true hit
// but never below one, so the lowest flag is always the first special
// byte; the tail of fewer than eight bytes goes byte by byte.
func skipPlain(buf []byte, i int) int {
	for ; i+8 <= len(buf); i += 8 {
		w := binary.LittleEndian.Uint64(buf[i:])
		q, s := w^quotes, w^backslashes
		m := ((w-spaces)&^w | (q-ones)&^q | (s-ones)&^s | w) & highs
		if m != 0 {
			return i + bits.TrailingZeros64(m)>>3
		}
	}
	for ; i < len(buf); i++ {
		if b := buf[i]; b == '"' || b == '\\' || b < 0x20 || b >= 0x80 {
			return i
		}
	}
	return i
}

// cursor is the scanner's position in a body.
type cursor struct {
	buf []byte
	i   int
}

// skipSpace moves past JSON whitespace and returns the new offset.
func (c *cursor) skipSpace() int {
	for c.i < len(c.buf) {
		switch c.buf[c.i] {
		case ' ', '\n', '\t', '\r':
			c.i++
		default:
			return c.i
		}
	}
	return c.i
}

// token skips whitespace, then consumes tok if it is next.
func (c *cursor) token(tok string) bool {
	i := c.skipSpace()
	if len(c.buf)-i < len(tok) || string(c.buf[i:i+len(tok)]) != tok {
		return false
	}
	c.i = i + len(tok)
	return true
}

// Resolve looks every key up in repo, in body order, into pooled
// storage valid until Release. unknown is the first key the repository
// does not have (nil when all resolved).
func (d *DecodedRequest) Resolve(repo *pkggraph.Repo) (ids []pkggraph.PkgID, unknown []byte) {
	ids = d.ids[:0]
	for _, key := range d.Keys {
		id, ok := repo.LookupBytes(key)
		if !ok {
			return nil, key
		}
		ids = append(ids, id)
	}
	d.ids = ids
	return ids, nil
}
