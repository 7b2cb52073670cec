package persist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// referenceCheckpointFrame is the checkpoint encoder the store shipped
// before the codec — json.Marshal, framed. It lives here only, as the
// byte oracle for encodeCheckpoint.
func referenceCheckpointFrame(ck Checkpoint) ([]byte, error) {
	payload, err := json.Marshal(&ck)
	if err != nil {
		return nil, err
	}
	return appendFrame(nil, payload), nil
}

// decodeCheckpointBoth decodes payload with the checkpoint decoder and
// with json.Unmarshal into a zero Checkpoint, and requires the same
// verdict: the same error text, or values equal under reflect.DeepEqual
// (nil and empty lists and maps are different values).
func decodeCheckpointBoth(t testing.TB, payload []byte) (Checkpoint, bool, error) {
	t.Helper()
	var want Checkpoint
	wantErr := json.Unmarshal(payload, &want)
	got, reference, gotErr := decodeCheckpoint(payload)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("payload %q:\ndecoder error %v\n json error   %v", payload, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("payload %q:\ndecoder %#v\n   json %#v", payload, got, want)
	}
	return got, reference, gotErr
}

// encodeCheckpointBoth requires encodeCheckpoint's frame for ck to be
// the reference frame, or its error to be json.Marshal's, and returns
// the payload.
func encodeCheckpointBoth(t testing.TB, ck Checkpoint) ([]byte, error) {
	t.Helper()
	want, wantErr := referenceCheckpointFrame(ck)
	got, gotErr := encodeCheckpoint(&ck)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("checkpoint %#v:\nencoder error %v\n json error   %v", ck, gotErr, wantErr)
	}
	if gotErr != nil {
		return nil, gotErr
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint %#v:\nencoder %q\n   json %q", ck, got, want)
	}
	return got[frameHeaderSize:], nil
}

// checkCheckpointPayload is the codec's whole contract on one payload,
// shared by the differential test and the fuzzer: (a) the decoder
// agrees with json.Unmarshal; (b) what it accepts re-encodes to
// json.Marshal's bytes, which the scanner reads back as the same
// checkpoint.
func checkCheckpointPayload(t testing.TB, payload []byte) {
	t.Helper()
	ck, _, err := decodeCheckpointBoth(t, payload)
	if err != nil {
		return
	}
	enc, err := encodeCheckpointBoth(t, ck)
	if err != nil {
		t.Fatalf("payload %q: accepted as %#v, but does not re-encode: %v", payload, ck, err)
	}
	again, _, err := decodeCheckpointBoth(t, enc)
	if err != nil {
		t.Fatalf("payload %q: accepted as %#v, but its re-encoding is refused: %v", payload, ck, err)
	}
	if len(ck.Meta) == 0 {
		ck.Meta = nil // omitted when empty
	}
	if !reflect.DeepEqual(again, ck) {
		t.Fatalf("payload %q: re-encoding reads back as %#v, want %#v", payload, again, ck)
	}
}

// awkwardFloats are the container-efficiency sums on each side of every
// boundary of json.Marshal's float rule, and its refusals.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, 123456.789, 1e20, 1e-7,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, -math.Nextafter(1e-6, 0),
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, -math.Nextafter(1e21, 0),
	5e-324, -5e-324, 2.2250738585072014e-308, math.Nextafter(2.2250738585072014e-308, 0),
	math.MaxFloat64, -math.MaxFloat64, 1e-100, 1.5e300,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

func (g codecGen) float() float64 {
	if g.pick(3) == 0 {
		return g.rng.NormFloat64() * math.Pow(10, float64(g.pick(60)-30))
	}
	return awkwardFloats[g.pick(len(awkwardFloats))]
}

func (g codecGen) checkpoint() Checkpoint {
	ck := Checkpoint{SavedUnixNano: g.signed(), WALSeq: g.counter() * uint64(g.pick(2))}
	switch g.pick(4) {
	case 0:
		ck.Meta = map[string]string{}
	case 1:
		ck.Meta = map[string]string{g.key(): g.key(), "repo_seed": g.key(), g.key(): ""}
	}
	switch n := g.pick(6); n {
	case 0:
	case 1:
		ck.State.Images = []core.ImageSnapshot{}
	default:
		for i := 0; i < n-1; i++ {
			ck.State.Images = append(ck.State.Images, core.ImageSnapshot{
				ID: g.counter(), Packages: g.list(g.key), LastUse: g.counter(),
				Merges: int(g.signed()), Version: g.counter(),
			})
		}
	}
	ck.State.NextID, ck.State.Clock = g.counter(), g.counter()
	ck.State.Stats = core.Stats{
		Requests: g.signed(), Hits: g.signed(), Inserts: g.signed(), Merges: g.signed(),
		Deletes: g.signed(), Splits: g.signed(), BytesWritten: g.signed(), RequestedBytes: g.signed(),
		ContainerEffSum: g.float(),
	}
	return ck
}

// ordinary makes ck what a store writes: ordinary keys, no empty
// package list, no counter at math.MinInt64 (left to encoding/json).
func (g codecGen) ordinary(ck Checkpoint) Checkpoint {
	if ck.Meta != nil {
		ck.Meta = map[string]string{"repo_seed": "7"}
	}
	for i := range ck.State.Images {
		keys := make([]string, 1+g.pick(5))
		for j := range keys {
			keys[j] = fmt.Sprintf("pkg-%03d/%d.0/x86_64-centos7-gcc8-opt", g.pick(1000), g.pick(9))
		}
		ck.State.Images[i].Packages = keys
		ck.State.Images[i].Merges &= math.MaxInt64
	}
	ck.SavedUnixNano &= math.MaxInt64
	st := &ck.State.Stats
	for _, n := range []*int64{&st.Requests, &st.Hits, &st.Inserts, &st.Merges, &st.Deletes, &st.Splits, &st.BytesWritten, &st.RequestedBytes} {
		*n &= math.MaxInt64
	}
	return ck
}

// TestCheckpointCodecDifferential holds the codec to encoding/json over
// seeded checkpoints of every awkward value, and then over damaged
// copies of their payloads.
func TestCheckpointCodecDifferential(t *testing.T) {
	n := 30_000
	if testing.Short() {
		n = 5_000
	}
	g := codecGen{rand.New(rand.NewSource(34))}
	fast := 0
	for i := 0; i < n; i++ {
		ck := g.checkpoint()
		if i%2 == 0 {
			ck = g.ordinary(ck)
		}
		payload, err := encodeCheckpointBoth(t, ck)
		if err != nil {
			continue // NaN or an infinity: json.Marshal's refusal, checked
		}
		if _, reference, _ := decodeCheckpointBoth(t, payload); !reference {
			fast++
		}
		checkCheckpointPayload(t, payload)
		checkCheckpointPayload(t, g.damage(payload))
	}
	if fast < n/4 {
		t.Fatalf("only %d of %d generated checkpoints took the scanner", fast, n)
	}
}

// TestCheckpointFloatRule pins the float boundaries one by one: each is
// written as json.Marshal writes it and read back to the same bits.
func TestCheckpointFloatRule(t *testing.T) {
	for _, f := range awkwardFloats {
		ck := Checkpoint{State: core.ManagerState{Images: []core.ImageSnapshot{}, Stats: core.Stats{ContainerEffSum: f}}}
		payload, err := encodeCheckpointBoth(t, ck)
		if err != nil {
			if !math.IsNaN(f) && !math.IsInf(f, 0) {
				t.Errorf("%v: %v", f, err)
			}
			continue
		}
		got, reference, err := decodeCheckpointBoth(t, payload)
		if err != nil || reference {
			t.Errorf("%v: payload %s decoded with reference=%v, %v", f, payload, reference, err)
			continue
		}
		if b := math.Float64bits(got.State.Stats.ContainerEffSum); b != math.Float64bits(f) {
			t.Errorf("%v: reads back as %v (bits %x, want %x)", f, got.State.Stats.ContainerEffSum, b, math.Float64bits(f))
		}
	}
}

// FuzzCheckpointCodec throws raw payload bytes at the checkpoint
// decoder. The corpus under testdata/fuzz/FuzzCheckpointCodec holds
// testdata/state_pr15's checkpoint and the canonical shapes' edges.
func FuzzCheckpointCodec(f *testing.F) {
	g := codecGen{rand.New(rand.NewSource(1))}
	for i := 0; i < 8; i++ {
		if payload, err := json.Marshal(g.checkpoint()); err == nil {
			f.Add(payload)
		}
	}
	for _, x := range awkwardFloats[:len(awkwardFloats)-3] {
		payload, err := json.Marshal(Checkpoint{Meta: map[string]string{"k": "v"}, State: core.ManagerState{Stats: core.Stats{ContainerEffSum: x}}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkCheckpointPayload(t, payload)
	})
}

// checkpointPayload reads the payload of the checkpoint file at path.
func checkpointPayload(t testing.TB, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payload, err := readFrame(bufio.NewReader(f), nil)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestCheckpointBytesUnchanged pins the on-disk format: the checkpoints
// a closure-mix store writes, and the golden directories' checkpoints
// once decoded, are framed to the bytes json.Marshal gave; and a
// checkpoint in either side's bytes reads back the same through both
// decoders.
func TestCheckpointBytesUnchanged(t *testing.T) {
	mix := newClosureMix(t)
	dir := t.TempDir()
	mix.crash(t, dir, 300, 100)
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ckpts, err := st.scan()
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("the mix wrote checkpoints %v (%v)", ckpts, err)
	}
	paths := []string{st.ckptPath(ckpts[len(ckpts)-1])}
	for _, golden := range []string{"testdata/state_pr15", "testdata/state_sharded2"} {
		paths = append(paths, filepath.Join(golden, "checkpoint-0000000000000002.ckpt"))
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ck, reference, err := readCheckpointFile(OSFS{}, path)
		if err != nil || reference {
			t.Fatalf("%s: reference=%v, %v", path, reference, err)
		}
		if len(ck.State.Images) == 0 {
			t.Fatalf("%s holds no image", path)
		}
		// What this code writes for the decoded checkpoint is the file.
		again, err := encodeCheckpoint(&ck)
		if err != nil || !bytes.Equal(again, data) {
			t.Errorf("%s: re-encoded to %d bytes (%v), the file is %d and differs", path, len(again), err, len(data))
		}
		checkCheckpointPayload(t, checkpointPayload(t, path))
	}
}

// TestCheckpointReference pins RecoveryReport.CheckpointReference:
// false for a checkpoint this code wrote and for the golden
// directories, true — with the state still exact — for one in another
// shape, and printed beside reference_decoded.
func TestCheckpointReference(t *testing.T) {
	recoverDir := func(dir string, cfg core.Config) (*core.ShardedManager, *RecoveryReport) {
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		mgr, rep, err := st.RecoverSharded(testRepo(t, 24, 10), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return mgr, rep
	}
	copyDir := func(from string) string {
		dir := t.TempDir()
		names, err := filepath.Glob(filepath.Join(from, "*-*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	for _, golden := range []struct {
		dir string
		cfg core.Config
	}{
		{"testdata/state_pr15", core.Config{Alpha: 0.75, Capacity: 200}},
		{"testdata/state_sharded2", testConfig()},
	} {
		_, rep := recoverDir(copyDir(golden.dir), golden.cfg)
		if rep.CheckpointSeq == 0 || rep.CheckpointReference {
			t.Errorf("%s: %s; want its checkpoint through the scanner", golden.dir, rep)
		}
		if !strings.Contains(rep.String(), "checkpoint_reference=false") {
			t.Errorf("the startup line does not carry the checkpoint's path: %s", rep)
		}
	}

	// The same checkpoint indented: another shape, the same state.
	dir := copyDir("testdata/state_pr15")
	want, rep := recoverDir(copyDir("testdata/state_pr15"), core.Config{Alpha: 0.75, Capacity: 200})
	path := filepath.Join(dir, "checkpoint-0000000000000002.ckpt")
	var ck Checkpoint
	if err := json.Unmarshal(checkpointPayload(t, path), &ck); err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(ck, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, appendFrame(nil, indented), 0o644); err != nil {
		t.Fatal(err)
	}
	got, rep2 := recoverDir(dir, core.Config{Alpha: 0.75, Capacity: 200})
	if !rep2.CheckpointReference || rep2.CheckpointSeq != rep.CheckpointSeq {
		t.Errorf("indented checkpoint: %s; want it through encoding/json", rep2)
	}
	if a, b := stateJSON(t, got.ExportState()), stateJSON(t, want.ExportState()); a != b {
		t.Errorf("indented checkpoint recovered as\n %s\nwant\n %s", a, b)
	}
}

// TestCheckpointAcrossCodecs writes a closure-mix state with each
// side's encoder — this code's and json.Marshal's — and reads each
// file with each side's decoder: all four readings are one state.
func TestCheckpointAcrossCodecs(t *testing.T) {
	mix := newClosureMix(t)
	mgr, err := core.NewSharded(mix.repo, mix.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := mgr.Request(mix.next()); err != nil {
			t.Fatal(err)
		}
	}
	ck := Checkpoint{SavedUnixNano: 1, WALSeq: 2, Meta: map[string]string{"repo_seed": "1"}, State: mgr.ExportState()}
	ours, err := encodeCheckpoint(&ck)
	if err != nil {
		t.Fatal(err)
	}
	theirs, err := referenceCheckpointFrame(ck)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	for name, frame := range map[string][]byte{"this code's": ours, "json.Marshal's": theirs} {
		payload := frame[frameHeaderSize:]
		var ref Checkpoint
		if err := json.Unmarshal(payload, &ref); err != nil {
			t.Fatalf("%s checkpoint: json.Unmarshal: %v", name, err)
		}
		got, reference, err := decodeCheckpoint(payload)
		if err != nil || reference {
			t.Fatalf("%s checkpoint: reference=%v, %v", name, reference, err)
		}
		for reader, c := range map[string]Checkpoint{"encoding/json": ref, "the scanner": got} {
			if b, _ := json.Marshal(c); !bytes.Equal(b, want) {
				t.Errorf("%s checkpoint read by %s differs from the state written", name, reader)
			}
		}
	}
}

// BenchmarkCheckpointCodec encodes and decodes the closure mix's state
// after 2,000 requests — the checkpoint a closure_mixed recovery writes
// and reads. make bench-guard bounds both sides' allocations.
func BenchmarkCheckpointCodec(b *testing.B) {
	mix := newClosureMix(b)
	mgr, err := core.NewSharded(mix.repo, mix.cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := mgr.Request(mix.next()); err != nil {
			b.Fatal(err)
		}
	}
	ck := Checkpoint{SavedUnixNano: 1, WALSeq: 2, State: mgr.ExportState()}
	frame, err := encodeCheckpoint(&ck)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, _ := encodeCheckpoint(&ck)
			benchSink += len(out)
		}
	})
	b.Run("decode", func(b *testing.B) {
		payload := frame[frameHeaderSize:]
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, reference, err := decodeCheckpoint(payload)
			if err != nil || reference {
				b.Fatalf("reference=%v, %v", reference, err)
			}
			benchSink += len(got.State.Images)
		}
	})
}
