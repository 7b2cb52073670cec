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

// codecRepo is the repository the record codec tests resolve keys
// against: the sample and corpus keys (a/1/x…f/1/x), keys of the
// generator's shape, and keys that are not plain bytes, which the
// scanner must leave to encoding/json even though the repository holds
// them.
var codecRepo = func() *pkggraph.Repo {
	var keys [][3]string
	for _, name := range []string{"a", "b", "c", "d", "e", "f", `R&D "core"`, "café", "a<b", `back\slash`} {
		keys = append(keys, [3]string{name, "1", "x"})
	}
	for i := 0; i < 32; i++ {
		keys = append(keys, [3]string{fmt.Sprintf("pkg-%03d", i), fmt.Sprintf("%d.%d.0", i%9, i%20), "x86_64-centos7-gcc8-opt"})
	}
	pkgs := make([]pkggraph.Package, len(keys))
	for i, k := range keys {
		pkgs[i] = pkggraph.Package{ID: pkggraph.PkgID(i), Name: k[0], Version: k[1], Platform: k[2], Size: 10, FileCount: 1}
	}
	repo, err := pkggraph.New(pkgs)
	if err != nil {
		panic(err)
	}
	return repo
}()

// newCodecDecoder is a record decoder over codecRepo.
func newCodecDecoder() *recordDecoder { return &recordDecoder{repo: codecRepo} }

// canonRecord is rec with empty lists as nil, so records compare by
// their contents.
func canonRecord(rec core.Record) core.Record {
	if len(rec.Packages) == 0 {
		rec.Packages = nil
	}
	if len(rec.Added) == 0 {
		rec.Added = nil
	}
	return rec
}

// decodeBoth decodes payload with the record decoder and with
// json.Unmarshal into a zero Mutation whose keys are then resolved one
// by one with Repo.Lookup (core.Record.Resolve), and requires the same
// verdict: the same error text, or the same record — kind, counters,
// ids, and the same unknown-key error, word for word. It returns
// json.Unmarshal's mutation.
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
	var wantRec core.Record
	wantRec.Resolve(dec.repo, want)
	if g, w := canonRecord(*got), canonRecord(wantRec); !reflect.DeepEqual(g, w) {
		t.Fatalf("payload %q:\ndecoder %#v\n   json %#v", payload, g, w)
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

func (g codecGen) list(key func() string) []string {
	switch g.pick(5) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	keys := make([]string, 1+g.pick(5))
	for i := range keys {
		keys[i] = key()
	}
	return keys
}

// recordKey is a codecRepo key half the time, and otherwise a key the
// repository lacks: one of key's, or a proper prefix of a repository
// key.
func (g codecGen) recordKey() string {
	switch g.pick(6) {
	case 0, 1, 2:
		return codecRepo.Key(pkggraph.PkgID(g.pick(codecRepo.Len())))
	case 3:
		k := codecRepo.Key(pkggraph.PkgID(g.pick(codecRepo.Len())))
		return k[:g.pick(len(k))]
	}
	return g.key()
}

func (g codecGen) mutation() core.Mutation {
	return core.Mutation{
		Kind: g.kind(), ImageID: g.counter(), LastUse: g.counter(), Version: g.counter(),
		Merges: int(g.signed()), RequestBytes: g.signed(),
		Packages: g.list(g.recordKey), Added: g.list(g.recordKey),
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
	dec := newCodecDecoder()
	fast, unknown := 0, 0
	for i := 0; i < n; i++ {
		mut := g.mutation()
		payload := encodeBoth(t, mut)
		before := dec.reference
		checkPayload(t, dec, payload)
		if dec.reference == before {
			fast++
			if dec.rec.PackagesErr != nil || dec.rec.AddedErr != nil {
				unknown++
			}
		}
		checkPayload(t, dec, g.damage(payload))
	}
	// The generator leans on the awkward cases, but the scanner must
	// still be what reads an ordinary record, and what finds an unknown
	// key in one.
	if fast < n/10 || unknown < n/50 {
		t.Fatalf("of %d generated records, %d took the scanner and %d of those named an unknown key", n, fast, unknown)
	}
}

// FuzzRecordCodec throws raw payload bytes at the record decoder —
// FuzzWALDecode mutates framed streams, so almost nothing it makes gets
// past the checksum to the payload decoder — and holds its resolved
// record to json.Unmarshal plus Repo.Lookup of each key. The corpus
// under testdata/fuzz/FuzzRecordCodec holds each canonical shape and
// each departure from it the scanner must hand to encoding/json; the
// seeds added here are the keys resolution treats apart: one codecRepo
// lacks, one a proper prefix of a key it holds, a /-escaped key it
// holds, a raw < and a byte >= 0x80 in keys it holds, and [].
func FuzzRecordCodec(f *testing.F) {
	for _, mut := range sampleMutations() {
		payload, err := json.Marshal(mut)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	for _, payload := range []string{
		`{"kind":"insert","image_id":1,"packages":["a/1/x","no/such/pkg"]}`,
		`{"kind":"merge","image_id":1,"version":2,"added":["pkg-001/1.1.0/x86_64"]}`,
		`{"kind":"insert","image_id":1,"packages":["a\/1\/x","b/1/x"]}`,
		`{"kind":"split","image_id":1,"packages":["a<b/1/x"]}`,
		`{"kind":"insert","image_id":1,"packages":["café/1/x"]}`,
		`{"kind":"merge","image_id":1,"version":2,"added":[]}`,
	} {
		f.Add([]byte(payload))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkPayload(t, newCodecDecoder(), payload)
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
// only, as the oracle for the streamed loop; it counts TailBytes by
// re-encoding each record read.
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
			// Every record here is in the shape this store writes, so
			// re-encoding it gives back the frame recovery read.
			frame, err := EncodeRecord(nil, mut)
			if err != nil {
				t.Fatal(err)
			}
			rep.TailBytes += int64(len(frame))
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

// TestRecoverUnknownKeys pins what recovery makes of records naming
// keys the repository lacks — in an insert, a merge delta, a pre-delta
// merge and a split, in plain bytes and in a payload only
// encoding/json reads, next to ones the record kind never reads — to
// the counts, warnings and state the key-string replay gave: resolving
// keys in the scan refuses the same records, with the same words.
func TestRecoverUnknownKeys(t *testing.T) {
	repo := testRepo(t, 24, 10)
	k := func(i int) string { return repo.Key(pkggraph.PkgID(i)) }
	data := encodeAll(t, []core.Mutation{
		{Kind: core.MutInsert, ImageID: 0, LastUse: 1, RequestBytes: 20, Packages: []string{k(0), k(1)}},
		{Kind: core.MutInsert, ImageID: 1, LastUse: 2, RequestBytes: 30, Packages: []string{k(2), "pkg/v99/p", "nope/1/x"}},
		{Kind: core.MutMerge, ImageID: 0, LastUse: 3, Version: 1, Merges: 1, RequestBytes: 20, Added: []string{k(3), "gone/1/x"}},
		{Kind: core.MutMerge, ImageID: 0, LastUse: 4, Version: 1, Merges: 1, RequestBytes: 20, Added: []string{k(4), k(5)}},
		{Kind: core.MutTouch, ImageID: 0, LastUse: 5, RequestBytes: 10, Added: []string{"ignored/1/x"}},
		{Kind: core.MutInsert, ImageID: 2, LastUse: 6, RequestBytes: 10, Packages: []string{`R&D "x"/1/p`, k(6)}},
		{Kind: core.MutMerge, ImageID: 0, LastUse: 7, Version: 2, Merges: 2, RequestBytes: 20, Packages: []string{k(0), "pkg/v1"}},
		{Kind: core.MutSplit, ImageID: 0, Version: 2, Packages: []string{"", k(0)}},
		{Kind: core.MutMerge, ImageID: 0, LastUse: 8, Version: 2, Merges: 2},
		{Kind: core.MutInsert, ImageID: 4, LastUse: 9, RequestBytes: 10, Packages: []string{k(7)}, Added: []string{"not/a/key"}},
		{Kind: core.MutMerge, ImageID: 4, LastUse: 10, Version: 5, Merges: 1, RequestBytes: 10, Added: []string{"late/1/x"}},
		{Kind: core.MutMerge, ImageID: 4, LastUse: 11, Version: 1, Merges: 1, RequestBytes: 10, Added: []string{k(8), "café/1/x"}},
		{Kind: core.MutMerge, ImageID: 4, LastUse: 12, Version: 1, Merges: 1, RequestBytes: 10, Added: []string{k(9)}},
	})
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mgr, rep, err := st.RecoverSharded(repo, core.Config{Alpha: 0.75, Capacity: 400})
	if err != nil {
		t.Fatal(err)
	}
	wantWarnings := []string{
		`segment 1: core: replaying insert of image 1: core: unknown package "pkg/v99/p"`,
		`segment 1: core: replaying merge of image 0: core: unknown package "gone/1/x"`,
		`segment 1: core: replaying insert of image 2: core: unknown package "R&D \"x\"/1/p"`,
		`segment 1: core: replaying merge of image 0: core: unknown package "pkg/v1"`,
		`segment 1: core: replaying split of image 0: core: unknown package ""`,
		`segment 1: core: replaying merge of image 0: no packages`,
		`segment 1: core: merge delta does not match the image's version: image 4 at version 0, delta yields 5`,
		`segment 1: core: replaying merge of image 4: core: unknown package "café/1/x"`,
	}
	if rep.RecordsReplayed != 5 || rep.RecordsSkipped != 8 || rep.RecordsReference != 2 || !slices.Equal(rep.Warnings, wantWarnings) {
		t.Errorf("recovery: %s\nwarnings %q\nwant replayed=5 skipped=8 reference_decoded=2, warnings %q", rep, rep.Warnings, wantWarnings)
	}
	const want = `{"images":[{"id":0,"packages":["pkg/v0/p","pkg/v1/p","pkg/v4/p","pkg/v5/p"],"last_use":5,"merges":1,"version":1},` +
		`{"id":4,"packages":["pkg/v7/p","pkg/v9/p"],"last_use":12,"merges":1,"version":1}],"next_id":5,"clock":12,` +
		`"stats":{"requests":5,"hits":1,"inserts":2,"merges":2,"deletes":0,"splits":0,"bytes_written":90,"requested_bytes":70,"container_eff_sum":3.25}}`
	if got := stateJSON(t, mgr.ExportState()); got != want {
		t.Errorf("recovered\n %s\nwant\n %s", got, want)
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
// a cache, streamed as one replay pass as recovery does it. One op is
// the whole segment; what it may allocate is the reader and its
// buffers, never anything per record. Guarded at 8 allocs/op.
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
	mgr, err := core.NewSharded(repo, core.Config{Alpha: 0.5})
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
		sr := newSegmentReader(repo)
		n := 0
		var readErr error
		err := mgr.Replay(func(apply func(*core.Record) error) {
			readErr = sr.each(bytes.NewReader(segment), func(rec *core.Record) {
				if err := apply(rec); err != nil {
					b.Fatal(err)
				}
				n++
			})
		})
		if err != nil || readErr != nil || n != records || sr.dec.reference != 0 {
			b.Fatalf("replayed %d records, %d through encoding/json: %v, %v", n, sr.dec.reference, err, readErr)
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
	var seen [][]pkggraph.PkgID
	if err := ReadRecords(bytes.NewReader(data), codecRepo, func(rec *core.Record) { seen = append(seen, rec.Packages) }); err != nil {
		t.Fatal(err)
	}
	c, _ := codecRepo.Lookup("c/1/x")
	if len(seen) != 2 || !slices.Equal(seen[0], seen[1]) || seen[0][0] != c {
		t.Errorf("kept past the callback, the records read %v; the second did not reuse the first one's id storage", seen)
	}
	muts, err := ReadSegment(bytes.NewReader(data))
	if err != nil || len(muts) != 2 || !slices.Equal(muts[0].Packages, []string{"a/1/x", "b/1/x"}) {
		t.Errorf("ReadSegment = %+v, %v; want detached copies", muts, err)
	}
}
