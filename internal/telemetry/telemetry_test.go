package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestJSONLSinkEmitsOneLinePerEvent(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	for i := 1; i <= 3; i++ {
		sink.Add(Event{Seq: uint64(i), Op: "insert", SpecPackages: i,
			Candidates: []Candidate{{ImageID: 7, Distance: 0.25}}})
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		n++
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d not valid JSON: %v", n, err)
		}
		if ev.Seq != uint64(n) || ev.Op != "insert" {
			t.Fatalf("line %d decoded to %+v", n, ev)
		}
		if len(ev.Candidates) != 1 || ev.Candidates[0].Distance != 0.25 {
			t.Fatalf("line %d candidates: %+v", n, ev.Candidates)
		}
	}
	if n != 3 {
		t.Fatalf("wrote %d lines, want 3", n)
	}
}

func TestJSONLSinkRetainsFirstError(t *testing.T) {
	sink := NewJSONLSink(failWriter{})
	sink.Add(Event{Op: "hit"})
	if sink.Err() == nil {
		t.Fatal("expected write error")
	}
	sink.Add(Event{Op: "hit"}) // must not panic or reset the error
	if sink.Err() == nil {
		t.Fatal("error lost")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errFail }

var errFail = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "fail" }

func TestRingRetainsMostRecent(t *testing.T) {
	r := NewRing(3)
	if got := r.Events(0); len(got) != 0 {
		t.Fatalf("empty ring returned %d events", len(got))
	}
	for i := 1; i <= 5; i++ {
		r.Add(Event{Seq: uint64(i)})
	}
	if r.Total() != 5 {
		t.Fatalf("Total = %d, want 5", r.Total())
	}
	got := r.Events(0)
	if len(got) != 3 {
		t.Fatalf("retained %d events, want 3", len(got))
	}
	for i, ev := range got {
		if want := uint64(3 + i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (oldest-first)", i, ev.Seq, want)
		}
	}
}

func TestRingLimit(t *testing.T) {
	r := NewRing(8)
	for i := 1; i <= 6; i++ {
		r.Add(Event{Seq: uint64(i)})
	}
	got := r.Events(2)
	if len(got) != 2 || got[0].Seq != 5 || got[1].Seq != 6 {
		t.Fatalf("Events(2) = %+v, want seqs 5,6", got)
	}
	if got := r.Events(100); len(got) != 6 {
		t.Fatalf("Events(100) returned %d, want 6", len(got))
	}
}

func TestRingCopiesEvents(t *testing.T) {
	r := NewRing(2)
	ev := Event{Seq: 1, Op: "hit"}
	r.Add(ev)
	ev.Op = "mutated"
	if got := r.Events(0)[0].Op; got != "hit" {
		t.Fatalf("ring retained caller's pointer: op = %q", got)
	}
}

func TestEventJSONSchema(t *testing.T) {
	// The JSONL schema is part of the documented observability surface
	// (README); keep the field names stable.
	data, err := json.Marshal(&Event{Op: "merge", Candidates: []Candidate{{ImageID: 1, Distance: 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		`"seq"`, `"op"`, `"spec_packages"`, `"request_bytes"`, `"image_id"`,
		`"image_version"`, `"image_size"`, `"bytes_written"`, `"superset_scanned"`,
		`"prefilter_accepted"`, `"prefilter_rejected"`, `"candidates"`,
		`"evicted"`, `"evicted_bytes"`, `"cached_bytes"`, `"images"`, `"duration_ns"`,
	} {
		if !strings.Contains(string(data), field) {
			t.Errorf("event JSON missing field %s: %s", field, data)
		}
	}
}

func TestRingEventsWhere(t *testing.T) {
	r := NewRing(8)
	ops := []string{"hit", "merge", "hit", "insert", "hit", "merge"}
	for i, op := range ops {
		r.Add(Event{Seq: uint64(i + 1), Op: op})
	}
	hits := r.EventsWhere("hit", 0)
	if len(hits) != 3 || hits[0].Seq != 1 || hits[2].Seq != 5 {
		t.Fatalf("EventsWhere(hit) = %+v", hits)
	}
	// Limit keeps the most recent matches, oldest-first order.
	if got := r.EventsWhere("hit", 2); len(got) != 2 || got[0].Seq != 3 || got[1].Seq != 5 {
		t.Fatalf("EventsWhere(hit, 2) = %+v", got)
	}
	if got := r.EventsWhere("", 2); len(got) != 2 || got[1].Seq != 6 {
		t.Fatalf("EventsWhere(\"\", 2) = %+v", got)
	}
	if got := r.EventsWhere("shed", 0); len(got) != 0 {
		t.Fatalf("EventsWhere(shed) = %+v", got)
	}
}

func TestRingConcurrentTraceAndFilter(t *testing.T) {
	// Writers race the read paths; the -race CI job runs this.
	r := NewRing(16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ops := []string{"hit", "merge", "insert"}
			for i := 0; i < 500; i++ {
				r.Add(Event{Seq: uint64(g*1000 + i), Op: ops[i%3]})
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = r.Events(8)
				_ = r.EventsWhere("hit", 4)
			}
		}()
	}
	wg.Wait()
	if r.Total() != 2000 {
		t.Fatalf("Total = %d, want 2000", r.Total())
	}
}
