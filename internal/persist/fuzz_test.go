package persist

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// FuzzWALDecode throws arbitrary bytes at the WAL record decoder. The
// invariants: never panic, never allocate beyond the record cap, and
// whatever decodes must re-encode and decode back to the same records
// (the decoder only ever accepts well-formed prefixes).
func FuzzWALDecode(f *testing.F) {
	// Seed corpus: empty, a real single-record stream, a real
	// multi-record stream (a delta merge and a pre-delta full-list one
	// among its records), a lone delta merge, a torn tail, a flipped
	// byte, and raw noise.
	f.Add([]byte{})
	single, err := EncodeRecord(nil, core.Mutation{
		Kind: core.MutInsert, ImageID: 1, LastUse: 2, RequestBytes: 30,
		Packages: []string{"a/1/x", "b/2/x"},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(single)
	multi := append([]byte(nil), single...)
	for _, mut := range []core.Mutation{
		{Kind: core.MutTouch, ImageID: 1, LastUse: 3, RequestBytes: 10},
		{Kind: core.MutMerge, ImageID: 1, LastUse: 4, Version: 1, Merges: 1, RequestBytes: 20, Added: []string{"c/3/x"}},
		{Kind: core.MutMerge, ImageID: 1, LastUse: 5, Version: 2, Merges: 2, RequestBytes: 20, Packages: []string{"a/1/x", "b/2/x", "c/3/x", "d/4/x"}}, // pre-delta shape
		{Kind: core.MutSplit, ImageID: 1, Version: 2, Packages: []string{"a/1/x"}},
		{Kind: core.MutDelete, ImageID: 1},
	} {
		multi, err = EncodeRecord(multi, mut)
		if err != nil {
			f.Fatal(err)
		}
	}
	f.Add(multi)
	delta, err := EncodeRecord(nil, core.Mutation{
		Kind: core.MutMerge, ImageID: 1, LastUse: 6, Version: 3, Merges: 3, RequestBytes: 40,
		Added: []string{"e/5/x", "f/6/x"},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(delta)
	f.Add(multi[:len(multi)-3])
	flipped := append([]byte(nil), multi...)
	flipped[9] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("\x01\x00\x00\x00\xff\xff\xff\xffX"))
	f.Add(bytes.Repeat([]byte{0xA5}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		muts, _ := ReadSegment(bytes.NewReader(data))
		// Round-trip: accepted records are canonical.
		var reenc []byte
		for _, mut := range muts {
			var err error
			reenc, err = EncodeRecord(reenc, mut)
			if err != nil {
				t.Fatalf("re-encoding accepted record %+v: %v", mut, err)
			}
		}
		again, err := ReadSegment(bytes.NewReader(reenc))
		if err != nil {
			t.Fatalf("re-decoding re-encoded stream: %v", err)
		}
		if len(again) != len(muts) {
			t.Fatalf("round trip lost records: %d -> %d", len(muts), len(again))
		}
	})
}
