package persist

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// FuzzWALDecode throws arbitrary bytes at the WAL record decoder. The
// invariants: never panic, never allocate beyond the record cap, and
// whatever decodes must re-encode and decode back to the same records
// (the decoder only ever accepts well-formed prefixes). A stream that
// ends cleanly still does, with the same records, behind zeros short
// of a header or longer — an open segment's zero tail — and fails
// behind a zero header followed by a nonzero byte. The committed
// corpus (testdata/fuzz/FuzzWALDecode) seeds the three tails.
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
		muts, err := ReadSegment(bytes.NewReader(data))
		if err == nil {
			for _, tail := range [][]byte{make([]byte, 3), make([]byte, 8), make([]byte, 100), append(make([]byte, 8), 1)} {
				got, err := ReadSegment(bytes.NewReader(append(data[:len(data):len(data)], tail...)))
				if clean := allZero(tail); clean != (err == nil) || len(got) != len(muts) {
					t.Fatalf("a clean stream of %d records behind %d-byte tail (zeros: %v) read %d records, err %v",
						len(muts), len(tail), clean, len(got), err)
				}
			}
		}
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
