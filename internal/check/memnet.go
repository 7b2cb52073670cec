package check

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// memNet is the harnesses' network: an in-memory HTTP fabric of named
// nodes. A request to http://<name>/... is served by that node's
// handler in the caller's goroutine, so a harness that drives its
// fleet from one goroutine gets every exchange in a fixed order and no
// socket, listener or connection pool exists to go stale. A node is
// started (or restarted) by registering a handler under its name and
// killed by unregistering it; a directed link can be cut and healed.
// A request to a dead node, or over a cut link, fails at the transport
// the way a refused connection does.
type memNet struct {
	mu    sync.Mutex
	nodes map[string]http.Handler
	cut   map[[2]string]bool // (src, dst) links that refuse
}

func newMemNet() *memNet {
	return &memNet{nodes: make(map[string]http.Handler), cut: make(map[[2]string]bool)}
}

// nodeURL is the base URL node name answers at.
func nodeURL(name string) string { return "http://" + name }

// register starts node name serving h, replacing whatever served there.
func (n *memNet) register(name string, h http.Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes[name] = h
}

// unregister kills node name: every later request to it is refused.
func (n *memNet) unregister(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodes, name)
}

// setCut cuts (on) or heals the directed link src -> dst.
func (n *memNet) setCut(src, dst string, on bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if on {
		n.cut[[2]string{src, dst}] = true
	} else {
		delete(n.cut, [2]string{src, dst})
	}
}

// transport is node src's view of the network, so the network knows both
// ends of every request it carries.
func (n *memNet) transport(src string) http.RoundTripper { return memLink{n, src} }

// client is an http.Client whose requests leave from node src.
func (n *memNet) client(src string) *http.Client { return &http.Client{Transport: n.transport(src)} }

type memLink struct {
	net *memNet
	src string
}

// RoundTrip serves req with its destination's handler, records the
// response and returns it.
func (l memLink) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	dst := req.URL.Host
	l.net.mu.Lock()
	h := l.net.nodes[dst]
	refused := h == nil || l.net.cut[[2]string{l.src, dst}]
	l.net.mu.Unlock()
	if refused {
		return nil, fmt.Errorf("memnet: %s -> %s: connection refused", l.src, dst)
	}
	in := req.Clone(req.Context())
	in.RequestURI = req.URL.RequestURI()
	in.RemoteAddr = l.src
	if in.Body == nil {
		in.Body = http.NoBody
	}
	rec := &memResponse{header: make(http.Header)}
	h.ServeHTTP(rec, in)
	if rec.sent == nil {
		rec.WriteHeader(http.StatusOK)
	}
	body := rec.body.Bytes()
	return &http.Response{
		Status:        strconv.Itoa(rec.status) + " " + http.StatusText(rec.status),
		StatusCode:    rec.status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.sent,
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}, nil
}

// memResponse records one handler's answer. Headers are fixed at
// WriteHeader, as on a real connection.
type memResponse struct {
	header http.Header
	sent   http.Header
	status int
	body   bytes.Buffer
}

func (r *memResponse) Header() http.Header { return r.header }

func (r *memResponse) WriteHeader(status int) {
	if r.sent != nil {
		return
	}
	r.status = status
	r.sent = r.header.Clone()
}

func (r *memResponse) Write(p []byte) (int, error) {
	if r.sent == nil {
		r.WriteHeader(http.StatusOK)
	}
	return r.body.Write(p)
}
