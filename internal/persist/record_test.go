package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pkggraph"
	"repro/internal/spec"
)

// referenceFrame is the record encoder the store shipped before the
// codec — json.Marshal, then header and payload copied behind it. It
// lives here only, as the byte oracle for EncodeRecord.
func referenceFrame(t testing.TB, buf []byte, mut core.Mutation) []byte {
	t.Helper()
	payload, err := json.Marshal(mut)
	if err != nil {
		t.Fatalf("json.Marshal(%+v): %v", mut, err)
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	return append(append(buf, hdr[:]...), payload...)
}

// decodeBoth decodes payload with the record decoder and with
// json.Unmarshal into a zero Mutation, and requires the same verdict:
// the same error text, or values equal under reflect.DeepEqual (nil and
// empty lists are different values). It returns the decoded mutation,
// detached from the decoder's storage.
func decodeBoth(t testing.TB, dec *recordDecoder, payload []byte) (core.Mutation, error) {
	t.Helper()
	var want core.Mutation
	wantErr := json.Unmarshal(payload, &want)
	got, gotErr := dec.decode(payload)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("payload %q:\ndecoder error %v\n json error   %v", payload, gotErr, wantErr)
	}
	if gotErr != nil {
		return core.Mutation{}, gotErr
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("payload %q:\ndecoder %#v\n   json %#v", payload, got, want)
	}
	return want, nil
}

// encodeBoth requires EncodeRecord's frame for mut to be the reference
// frame and returns its payload.
func encodeBoth(t testing.TB, mut core.Mutation) []byte {
	t.Helper()
	// A dirty prefix: the frame must start where the buffer ended.
	got, err := EncodeRecord([]byte("prefix"), mut)
	if err != nil {
		t.Fatalf("EncodeRecord(%+v): %v", mut, err)
	}
	want := referenceFrame(t, []byte("prefix"), mut)
	if !bytes.Equal(got, want) {
		t.Fatalf("mutation %#v:\nencoder %q\n   json %q", mut, got, want)
	}
	return got[len("prefix")+frameHeaderSize:]
}

// emptyAsNil is what a mutation reads back as once re-encoded: empty
// lists are omitted from the record like nil ones.
func emptyAsNil(mut core.Mutation) core.Mutation {
	if len(mut.Packages) == 0 {
		mut.Packages = nil
	}
	if len(mut.Added) == 0 {
		mut.Added = nil
	}
	return mut
}

// checkPayload is the codec's whole contract on one payload, shared by
// the differential test and the fuzzer: (a) the decoder agrees with
// json.Unmarshal; (b) what it accepts re-encodes to json.Marshal's
// bytes, and those decode back to the same mutation.
func checkPayload(t testing.TB, dec *recordDecoder, payload []byte) {
	t.Helper()
	mut, err := decodeBoth(t, dec, payload)
	if err != nil {
		return
	}
	again, err := decodeBoth(t, dec, encodeBoth(t, mut))
	if err != nil {
		t.Fatalf("payload %q: accepted as %#v, but its re-encoding is refused: %v", payload, mut, err)
	}
	if want := emptyAsNil(mut); !reflect.DeepEqual(again, want) {
		t.Fatalf("payload %q: re-encoding reads back as %#v, want %#v", payload, again, want)
	}
}

// codecGen draws mutations and payload damage for the differential
// test.
type codecGen struct{ rng *rand.Rand }

func (g codecGen) pick(n int) int { return g.rng.Intn(n) }

func (g codecGen) kind() core.MutationKind {
	kinds := []core.MutationKind{
		core.MutInsert, core.MutMerge, core.MutTouch, core.MutDelete, core.MutSplit,
		"", "Touch", "evict", "to\"uch", "merge\\", "<kind>", "tou\x00ch", "слияние", "bad\xff",
	}
	if g.pick(4) == 0 {
		return kinds[5+g.pick(len(kinds)-5)]
	}
	return kinds[g.pick(5)]
}

func (g codecGen) counter() uint64 {
	switch g.pick(6) {
	case 0:
		return 0
	case 1:
		return 1 << 63
	case 2:
		return math.MaxUint64
	case 3:
		return math.MaxInt64
	default:
		return uint64(g.rng.Int63n(1 << uint(1+g.pick(62))))
	}
}

func (g codecGen) signed() int64 {
	switch g.pick(6) {
	case 0:
		return 0
	case 1:
		return math.MinInt64
	case 2:
		return math.MaxInt64
	case 3:
		return -1 - g.rng.Int63n(1<<uint(1+g.pick(62)))
	default:
		return g.rng.Int63n(1 << uint(1+g.pick(62)))
	}
}

func (g codecGen) key() string {
	if g.pick(3) > 0 {
		return fmt.Sprintf("pkg-%03d/%d.%d.0/x86_64-centos7-gcc8-opt", g.pick(1000), g.pick(9), g.pick(20))
	}
	// Every byte class the two codecs treat differently.
	pieces := []string{
		"a", "/", "lib", "1.0", " ", "<", ">", "&", `"`, `\`, "\x00", "\x1f", "\x7f", "\n", "\t",
		"é", "\u2028", "\u2029", "世界", "\xff", "\xc3", "\\u0041", "~", "{", "]", ",",
	}
	var b strings.Builder
	for n := g.pick(6); n > 0; n-- {
		b.WriteString(pieces[g.pick(len(pieces))])
	}
	return b.String()
}

func (g codecGen) list() []string {
	switch g.pick(5) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	keys := make([]string, 1+g.pick(5))
	for i := range keys {
		keys[i] = g.key()
	}
	return keys
}

func (g codecGen) mutation() core.Mutation {
	return core.Mutation{
		Kind: g.kind(), ImageID: g.counter(), LastUse: g.counter(), Version: g.counter(),
		Merges: int(g.signed()), RequestBytes: g.signed(),
		Packages: g.list(), Added: g.list(),
	}
}

// damage substitutes one to three bytes of payload with bytes that are
// likely to land on another branch of either decoder.
func (g codecGen) damage(payload []byte) []byte {
	const alphabet = `0123456789-+.eE"\,:[]{} ` + "\n\x00\x7f\xff" + `aklmnstuU/<&`
	out := append([]byte(nil), payload...)
	for n := 1 + g.pick(3); n > 0; n-- {
		b := byte(g.rng.Intn(256))
		if g.pick(8) > 0 {
			b = alphabet[g.pick(len(alphabet))]
		}
		out[g.pick(len(out))] = b
	}
	return out
}

// TestRecordCodecDifferential holds the codec to encoding/json over
// seeded mutations of every kind and every awkward value, and then over
// damaged copies of their payloads.
func TestRecordCodecDifferential(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 20_000
	}
	g := codecGen{rand.New(rand.NewSource(21))}
	var dec recordDecoder
	fast := 0
	for i := 0; i < n; i++ {
		mut := g.mutation()
		payload := encodeBoth(t, mut)
		before := dec.reference
		checkPayload(t, &dec, payload)
		if dec.reference == before {
			fast++
		}
		checkPayload(t, &dec, g.damage(payload))
	}
	// The generator leans on the awkward cases, but the scanner must
	// still be what reads an ordinary record.
	if fast < n/10 {
		t.Fatalf("only %d of %d generated records took the scanner", fast, n)
	}
}

// FuzzRecordCodec throws raw payload bytes at the record decoder —
// FuzzWALDecode mutates framed streams, so almost nothing it makes gets
// past the checksum to the payload decoder. The corpus under
// testdata/fuzz/FuzzRecordCodec holds each canonical shape and each
// departure from it the scanner must hand to encoding/json.
func FuzzRecordCodec(f *testing.F) {
	for _, mut := range sampleMutations() {
		payload, err := json.Marshal(mut)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var dec recordDecoder
		checkPayload(t, &dec, payload)
	})
}

// recordingHook checks every mutation's frame against the reference as
// the manager commits it, keeps the reference bytes, and passes the
// mutation on.
type recordingHook struct {
	t    *testing.T
	next core.CommitHook
	log  []byte
	n    map[core.MutationKind]int
}

func (h *recordingHook) Commit(mut core.Mutation) {
	encodeBoth(h.t, mut)
	h.log = referenceFrame(h.t, h.log, mut)
	h.n[mut.Kind]++
	h.next.Commit(mut)
}

// TestWALBytesUnchanged pins the on-disk format: every mutation a
// seeded 2,000-request run commits, of all five kinds, is framed to the
// bytes json.Marshal + the old frame writer gave, and the segment the
// store wrote is those frames and nothing else.
func TestWALBytesUnchanged(t *testing.T) {
	repo := testRepo(t, 24, 10)
	st, err := Open(t.TempDir(), Options{SyncPolicy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	mgr, _, err := st.RecoverSharded(repo, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	hook := &recordingHook{t: t, next: st, n: map[core.MutationKind]int{}}
	mgr.SetCommitHook(hook)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		if _, err := mgr.Request(randSpec(rng, repo.Len())); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if (i+1)%6 == 0 {
			if _, err := mgr.Prune(0.5, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []core.MutationKind{core.MutInsert, core.MutMerge, core.MutTouch, core.MutDelete, core.MutSplit} {
		if hook.n[kind] == 0 {
			t.Errorf("the run committed no %s; it no longer covers every record kind", kind)
		}
	}
	data, err := os.ReadFile(st.segPath(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, hook.log) {
		t.Fatalf("segment holds %d bytes, the reference frames of the committed mutations are %d bytes and differ", len(data), len(hook.log))
	}
}

// referenceRecover is the replay loop recovery ran before it streamed:
// each segment materialised by ReadSegment, then applied. Test-side
// only, as the oracle for the streamed loop.
func referenceRecover(t *testing.T, st *Store, mgr *core.ShardedManager) *RecoveryReport {
	t.Helper()
	segs, _, err := st.scan()
	if err != nil {
		t.Fatal(err)
	}
	rep := &RecoveryReport{}
	for i, seq := range segs {
		rep.SegmentsScanned++
		f, err := os.Open(st.segPath(seq))
		if err != nil {
			t.Fatal(err)
		}
		muts, readErr := ReadSegment(f)
		f.Close()
		for _, mut := range muts {
			if err := mgr.ApplyMutation(mut); err != nil {
				rep.RecordsSkipped++
				rep.warn("segment %d: %v", seq, err)
				continue
			}
			rep.RecordsReplayed++
		}
		if readErr != nil {
			if i == len(segs)-1 {
				rep.TornTail = true
				rep.warn("segment %d ends with a torn record: %v", seq, readErr)
			} else {
				rep.CorruptSegments++
				rep.warn("segment %d corrupt mid-stream: %v", seq, readErr)
			}
		}
	}
	return rep
}

// TestReplayStreamsInOrder compares streamed recovery with the
// materialising loop on a log of many small segments, one of them
// corrupt in the middle (so later deltas of the images it touched are
// refused) and the last one torn: same counts, same warnings in the
// same order, same state.
func TestReplayStreamsInOrder(t *testing.T) {
	repo := testRepo(t, 24, 10)
	cfg := core.Config{Alpha: 0.75, Capacity: 400}
	dir := t.TempDir()
	st, err := Open(dir, Options{SegmentBytes: 512, SyncPolicy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	live, _, err := st.RecoverSharded(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		if _, err := live.Request(randSpec(rng, repo.Len())); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := st.scan()
	if err != nil || len(segs) < 8 {
		t.Fatalf("wanted a log of many segments, got %d (%v)", len(segs), err)
	}
	damage := func(seq uint64, edit func([]byte) []byte) {
		data, err := os.ReadFile(st.segPath(seq))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.segPath(seq), edit(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	damage(segs[1], func(b []byte) []byte { b[len(b)/3] ^= 0x10; return b })
	damage(segs[len(segs)-1], func(b []byte) []byte { return b[:len(b)-5] })

	ref, err := core.NewSharded(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceRecover(t, st, ref)

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, rep, err := st2.RecoverSharded(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.CorruptSegments != 1 || !want.TornTail || want.RecordsSkipped == 0 || want.RecordsReplayed < 100 {
		t.Fatalf("the damaged log does not exercise what it should: %s %v", want, want.Warnings)
	}
	want.Duration = rep.Duration
	if !reflect.DeepEqual(rep, want) {
		t.Errorf("streamed recovery reports\n %s %q\nthe materialising loop\n %s %q", rep, rep.Warnings, want, want.Warnings)
	}
	if g, w := stateJSON(t, got.ExportState()), stateJSON(t, ref.ExportState()); g != w {
		t.Errorf("streamed recovery rebuilt\n %s\nthe materialising loop\n %s", g, w)
	}
	if err := got.CheckIntegrity(); err != nil {
		t.Errorf("recovered cache fails its invariants: %v", err)
	}
}

// TestRecoveryCountsReferenceRecords pins RecordsReference: zero for a
// log this code wrote over ordinary keys and for the golden pre-delta
// directory, positive — with the state still exact — when a key needs a
// JSON escape and its records go through encoding/json both ways.
func TestRecoveryCountsReferenceRecords(t *testing.T) {
	recoverDir := func(dir string, repo *pkggraph.Repo, cfg core.Config) (*core.ShardedManager, *RecoveryReport) {
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		mgr, rep, err := st.RecoverSharded(repo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return mgr, rep
	}
	writeLog := func(repo *pkggraph.Repo) (string, string) {
		dir := t.TempDir()
		st, err := Open(dir, Options{SyncPolicy: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		mgr, _, err := st.RecoverSharded(repo, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 200; i++ {
			if _, err := mgr.Request(randSpec(rng, repo.Len())); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, stateJSON(t, mgr.ExportState())
	}

	dir, live := writeLog(testRepo(t, 24, 10))
	mgr, rep := recoverDir(dir, testRepo(t, 24, 10), testConfig())
	if rep.RecordsReference != 0 || rep.RecordsReplayed < 200 {
		t.Errorf("own log: %s; want every record through the scanner", rep)
	}
	if got := stateJSON(t, mgr.ExportState()); got != live {
		t.Errorf("own log recovered as\n %s\nwant\n %s", got, live)
	}
	if !strings.Contains(rep.String(), "reference_decoded=0") {
		t.Errorf("the startup line does not carry the count: %s", rep)
	}

	golden := t.TempDir()
	for _, name := range []string{"checkpoint-0000000000000002.ckpt", "wal-0000000000000002.log"} {
		data, err := os.ReadFile(filepath.Join("testdata/state_pr15", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(golden, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, rep := recoverDir(golden, testRepo(t, 24, 10), core.Config{Alpha: 0.75, Capacity: 200}); rep.RecordsReference != 0 || rep.RecordsReplayed == 0 {
		t.Errorf("golden directory: %s; its records are canonical", rep)
	}

	// One package whose key json.Marshal escapes.
	escaped := func() *pkggraph.Repo {
		pkgs := make([]pkggraph.Package, 24)
		for i := range pkgs {
			pkgs[i] = pkggraph.Package{ID: pkggraph.PkgID(i), Name: "pkg", Version: fmt.Sprintf("v%d", i), Platform: "p", Size: 10, FileCount: 1}
		}
		pkgs[0].Name = `R&D "core"`
		repo, err := pkggraph.New(pkgs)
		if err != nil {
			t.Fatal(err)
		}
		return repo
	}
	dir, live = writeLog(escaped())
	mgr, rep = recoverDir(dir, escaped(), testConfig())
	if rep.RecordsReference == 0 || rep.RecordsReference >= rep.RecordsReplayed || rep.RecordsSkipped != 0 {
		t.Errorf("escaped key: %s; want some records, not all, through encoding/json and none skipped", rep)
	}
	if got := stateJSON(t, mgr.ExportState()); got != live {
		t.Errorf("escaped-key log recovered as\n %s\nwant\n %s", got, live)
	}
}

// benchKeys are n keys of the benchmark repository's shape.
func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("app-%04d/%d.%d.0/x86_64-centos7-gcc8-opt", i, i%9, i%7)
	}
	return keys
}

var benchSink int

// BenchmarkEncodeRecord frames the largest and the commonest record
// into a reused buffer, as Store.Commit does: a fresh image of 322
// packages (~14 KB) and a touch. Guarded at 0 allocs/op.
func BenchmarkEncodeRecord(b *testing.B) {
	for _, bc := range []struct {
		name string
		mut  core.Mutation
	}{
		{"insert322", core.Mutation{Kind: core.MutInsert, ImageID: 7, LastUse: 12345, RequestBytes: 3 << 30, Packages: benchKeys(322)}},
		{"touch", core.Mutation{Kind: core.MutTouch, ImageID: 7, LastUse: 12345, RequestBytes: 3 << 30}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf, err := EncodeRecord(nil, bc.mut)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = EncodeRecord(buf[:0], bc.mut)
			}
			benchSink += len(buf)
		})
	}
}

// BenchmarkReplaySegment replays a segment of 10,000 touch records into
// a manager, streamed as recovery does it. One op is the whole segment;
// what it may allocate is the reader and its buffers, never anything
// per record. Guarded at 8 allocs/op.
func BenchmarkReplaySegment(b *testing.B) {
	const records = 10_000
	pkgs := make([]pkggraph.Package, 8)
	for i := range pkgs {
		pkgs[i] = pkggraph.Package{ID: pkggraph.PkgID(i), Name: "pkg", Version: fmt.Sprintf("v%d", i), Platform: "p", Size: 10, FileCount: 1}
	}
	repo, err := pkggraph.New(pkgs)
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := core.NewManager(repo, core.Config{Alpha: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := mgr.Request(spec.New([]pkggraph.PkgID{0, 1, 2})); err != nil {
		b.Fatal(err)
	}
	id := mgr.ExportState().Images[0].ID
	var segment []byte
	for i := 0; i < records; i++ {
		segment, _ = EncodeRecord(segment, core.Mutation{Kind: core.MutTouch, ImageID: id, LastUse: uint64(2 + i), RequestBytes: 30})
	}
	b.SetBytes(int64(len(segment)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr := newSegmentReader()
		n := 0
		err := sr.each(bytes.NewReader(segment), func(mut core.Mutation) {
			if err := mgr.ApplyMutation(mut); err != nil {
				b.Fatal(err)
			}
			n++
		})
		if err != nil || n != records || sr.dec.reference != 0 {
			b.Fatalf("replayed %d records, %d through encoding/json: %v", n, sr.dec.reference, err)
		}
	}
}

// TestSegmentReaderReusesStorage pins the streaming contract from the
// caller's side: the lists of one record are overwritten by the next,
// and ReadSegment's are not.
func TestSegmentReaderReusesStorage(t *testing.T) {
	data := encodeAll(t, []core.Mutation{
		{Kind: core.MutInsert, ImageID: 1, Packages: []string{"a/1/x", "b/1/x"}},
		{Kind: core.MutInsert, ImageID: 2, Packages: []string{"c/1/x", "d/1/x"}},
	})
	var seen []core.Mutation
	if err := newSegmentReader().each(bytes.NewReader(data), func(mut core.Mutation) { seen = append(seen, mut) }); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || !slices.Equal(seen[0].Packages, seen[1].Packages) {
		t.Errorf("kept past the callback, the records read %+v; the second did not reuse the first one's key storage", seen)
	}
	muts, err := ReadSegment(bytes.NewReader(data))
	if err != nil || len(muts) != 2 || !slices.Equal(muts[0].Packages, []string{"a/1/x", "b/1/x"}) {
		t.Errorf("ReadSegment = %+v, %v; want detached copies", muts, err)
	}
}
