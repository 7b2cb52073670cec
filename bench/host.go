package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox this benchmark was built in does not run at one speed. A
// dependent-multiply loop repeats to 2%, but code that branches on data
// and touches memory (a JSON round trip, a byte scan that hashes into a
// table) takes 1.0x to 1.7x its best time, moving within a second and
// again over minutes with what the host's other tenants do to the
// shared core and caches. The daemon is such code: ten identical runs
// of a workload read 3800 to 6600 req/s, CPU time per request rising
// in step, and no estimator over one run's windows removes a slowdown
// that lasts the whole run.
//
// hostWatch therefore measures the host while the benchmark runs. A
// thread of its own executes a fixed kernel every sampleEvery and reads
// what the kernel cost in thread CPU time, which does not count waiting
// for a processor. The kernel is frozen with the benchmark, calls
// nothing of the repository and allocates nothing, so no change to the
// program and no change to its heap can move it. A measurement's host
// index is the median sample taken while it ran, over hostNominal; the
// benchmark divides every time by the index of its own interval (and
// multiplies every rate), which states the measurement at nominal host
// speed. A stall of the program is inside the measurement and stays
// there: the index is chosen by what the host did, never by what the
// measurement read.
type hostWatch struct {
	doc   []byte
	mem   []byte
	ring  []byte
	table []byte
	off   int

	mu      sync.Mutex
	samples []hostSample

	quit chan struct{}
	done chan struct{}
}

// hostSample is the kernel's cost, in seconds, at a moment.
type hostSample struct {
	at   time.Time
	cost float64
}

const (
	sampleEvery = 10 * time.Millisecond
	// kernelReps is how often a sample repeats the kernel (~35 us each).
	kernelReps = 4
	// hostNominal is the kernel's cost, in seconds, on a quiet minute of
	// the sandbox the benchmark was built in (the runs of the first ledger
	// row read an index of 1.01 to 1.57). Frozen: it only fixes the scale.
	hostNominal = 33.4e-6

	ringBytes  = 16 << 20
	tableBytes = 1 << 18
	docStrings = 325
)

// startHostWatch allocates the kernel's memory outside the Go heap, so
// that heap_mb does not see it, and starts sampling.
func startHostWatch() (*hostWatch, error) {
	mem, err := syscall.Mmap(-1, 0, ringBytes+tableBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	for i := range mem {
		mem[i] = 1 // fault every page in before the first sample
	}
	h := &hostWatch{
		mem:   mem,
		ring:  mem[:ringBytes],
		table: mem[ringBytes:],
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	// A request body's shape: a list of quoted package keys.
	h.doc = append(h.doc, `{"packages":[`...)
	for i := 0; i < docStrings; i++ {
		if i > 0 {
			h.doc = append(h.doc, ',')
		}
		h.doc = append(h.doc, '"')
		for k, x := 0, uint32(i)*2654435761; k < 36; k, x = k+1, x*1664525+1013904223 {
			h.doc = append(h.doc, 'a'+byte(x>>27)%26)
		}
		h.doc = append(h.doc, '"')
	}
	h.doc = append(h.doc, `],"close":false}`...)
	go h.watch()
	return h, nil
}

// stop ends the sampling and releases the kernel's memory.
func (h *hostWatch) stop() {
	close(h.quit)
	<-h.done
	syscall.Munmap(h.mem)
}

// scanStrings hashes every quoted string of body and counts it in table.
func scanStrings(body, table []byte) {
	const offset, prime = 2166136261, 16777619
	h, in := uint32(offset), false
	for _, b := range body {
		switch {
		case b == '"':
			if in {
				table[h%uint32(len(table))]++
				h = offset
			}
			in = !in
		case in:
			h = (h ^ uint32(b)) * prime
		}
	}
}

// kernel scans the document where it lies, warm, then copies it to
// memory not touched for the last ~1000 copies and scans the copy.
func (h *hostWatch) kernel() {
	scanStrings(h.doc, h.table)
	if h.off+len(h.doc) > len(h.ring) {
		h.off = 0
	}
	dst := h.ring[h.off : h.off+len(h.doc)]
	copy(dst, h.doc)
	scanStrings(dst, h.table)
	h.off += len(h.doc) + 4096
}

// threadCPUSeconds is the CPU time the calling thread has used.
func threadCPUSeconds() float64 {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

func (h *hostWatch) watch() {
	runtime.LockOSThread()
	defer close(h.done)
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	for {
		c0 := threadCPUSeconds()
		for r := 0; r < kernelReps; r++ {
			h.kernel()
		}
		s := hostSample{cost: (threadCPUSeconds() - c0) / kernelReps, at: time.Now()}
		h.mu.Lock()
		h.samples = append(h.samples, s)
		h.mu.Unlock()
		select {
		case <-h.quit:
			return
		case <-tick.C:
		}
	}
}

// index returns the host index of the interval [from, to]: the median
// sample taken inside it over hostNominal, 1 on the sandbox the
// benchmark was built in, above 1 on a slower host. An interval too
// short to hold a sample takes the sample nearest to it.
func (h *hostWatch) index(from, to time.Time) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return indexOf(h.samples, from, to)
}

func indexOf(samples []hostSample, from, to time.Time) float64 {
	var in []float64
	var nearest float64
	gap := time.Duration(-1)
	for _, s := range samples {
		switch {
		case s.at.Before(from):
			if d := from.Sub(s.at); gap < 0 || d < gap {
				gap, nearest = d, s.cost
			}
		case s.at.After(to):
			if d := s.at.Sub(to); gap < 0 || d < gap {
				gap, nearest = d, s.cost
			}
		default:
			in = append(in, s.cost)
		}
	}
	switch {
	case len(in) > 0:
		return median(in) / hostNominal
	case gap >= 0:
		return nearest / hostNominal
	}
	return 1
}

// overall is the index of everything sampled so far.
func (h *hostWatch) overall() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 1
	}
	return indexOf(h.samples, h.samples[0].at, h.samples[len(h.samples)-1].at)
}
