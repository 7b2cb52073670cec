package core

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pkggraph"
	"repro/internal/spec"
)

// recorder is a CommitHook that keeps every mutation.
type recorder struct {
	muts []Mutation
}

func (r *recorder) Commit(mut Mutation) {
	mut.Packages = append([]string(nil), mut.Packages...)
	mut.Added = append([]string(nil), mut.Added...)
	r.muts = append(r.muts, mut)
}

// TestCommitHookEmitsOutcomes pins the hook protocol on a hand-built
// scenario: insert, hit, merge, then an insert that evicts.
func TestCommitHookEmitsOutcomes(t *testing.T) {
	repo := flatRepo(t, 8, 10)
	rec := &recorder{}
	m := mgr(t, repo, Config{Alpha: 0.5, Capacity: 40, Commit: rec})

	request(t, m, sp(0, 1))    // insert image 0
	request(t, m, sp(0, 1))    // hit -> touch
	request(t, m, sp(0, 1, 2)) // d({0,1},{0,1,2}) = 1/3 <= alpha -> merge
	request(t, m, sp(3, 4))    // insert; 30+20 > 40 -> evicts image 0

	var kinds []MutationKind
	for _, mut := range rec.muts {
		kinds = append(kinds, mut.Kind)
	}
	want := []MutationKind{MutInsert, MutTouch, MutMerge, MutInsert, MutDelete}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("mutation kinds = %v, want %v", kinds, want)
	}
	merge := rec.muts[2]
	if merge.ImageID != 0 || merge.Version != 1 || merge.Merges != 1 {
		t.Errorf("merge mutation carries wrong counters: %+v", merge)
	}
	if want := []string{key(repo, 2)}; len(merge.Packages) != 0 || !reflect.DeepEqual(merge.Added, want) {
		t.Errorf("merge mutation packages = %v added = %v, want no full list and added %v", merge.Packages, merge.Added, want)
	}
	if del := rec.muts[4]; del.ImageID != 0 {
		t.Errorf("delete mutation targets image %d, want 0", del.ImageID)
	}
}

// TestReplayEquivalence is the property the WAL rests on: applying the
// hook's mutation stream to a fresh manager reproduces the live
// manager's exported state exactly — images, IDs, versions, LRU
// clocks, and stats — across a randomized workload with merges,
// evictions, and prune splits.
func TestReplayEquivalence(t *testing.T) {
	repo := flatRepo(t, 24, 10)
	rec := &recorder{}
	live := mgr(t, repo, Config{Alpha: 0.5, Capacity: 160, Commit: rec})

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		k := 1 + rng.Intn(3)
		ids := make([]pkggraph.PkgID, k)
		for j := range ids {
			ids[j] = pkggraph.PkgID(rng.Intn(repo.Len()))
		}
		request(t, live, spec.New(ids))
		if (i+1)%25 == 0 {
			if _, err := live.Prune(0.5, 1); err != nil {
				t.Fatalf("prune: %v", err)
			}
		}
	}
	if err := live.CheckIntegrity(); err != nil {
		t.Fatalf("live manager invariants: %v", err)
	}

	replayed := mgr(t, repo, Config{Alpha: 0.5, Capacity: 160})
	for i, mut := range rec.muts {
		if err := replayed.ApplyMutation(mut); err != nil {
			t.Fatalf("replaying mutation %d (%+v): %v", i, mut, err)
		}
	}
	if err := replayed.CheckIntegrity(); err != nil {
		t.Fatalf("replayed manager invariants: %v", err)
	}
	got, want := replayed.ExportState(), live.ExportState()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed state differs from live state:\n got %+v\nwant %+v", got, want)
	}
}

// TestApplyMutationNeverEvicts: replay applies logged outcomes only;
// an over-capacity state is legal until the next live request, whose
// LRU pass brings the cache back under budget.
func TestApplyMutationNeverEvicts(t *testing.T) {
	repo := flatRepo(t, 8, 10)
	m := mgr(t, repo, Config{Capacity: 30})
	for i := 0; i < 3; i++ {
		mut := Mutation{
			Kind: MutInsert, ImageID: uint64(i), LastUse: uint64(i + 1),
			RequestBytes: 20, Packages: []string{key(repo, 2*i), key(repo, 2*i+1)},
		}
		if err := m.ApplyMutation(mut); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if m.Len() != 3 || m.TotalData() != 60 {
		t.Fatalf("replay evicted: %d images, %d bytes (want 3, 60)", m.Len(), m.TotalData())
	}
	request(t, m, sp(6, 7))
	if m.TotalData() > 30 {
		t.Fatalf("live request left cache over capacity: %d bytes", m.TotalData())
	}
}

func key(repo *pkggraph.Repo, i int) string {
	return repo.Package(pkggraph.PkgID(i)).Key()
}

func TestApplyMutationErrors(t *testing.T) {
	repo := flatRepo(t, 8, 10)
	m := mgr(t, repo, Config{MinHash: DefaultMinHash()})
	if err := m.ApplyMutation(Mutation{Kind: MutInsert, ImageID: 1, LastUse: 1, Packages: []string{key(repo, 0)}}); err != nil {
		t.Fatalf("seed insert: %v", err)
	}
	before := m.ExportState()

	cases := []struct {
		name string
		mut  Mutation
	}{
		{"touch unknown", Mutation{Kind: MutTouch, ImageID: 9}},
		{"insert duplicate", Mutation{Kind: MutInsert, ImageID: 1, Packages: []string{key(repo, 1)}}},
		{"insert unknown package", Mutation{Kind: MutInsert, ImageID: 2, Packages: []string{"no/such/pkg"}}},
		{"insert empty", Mutation{Kind: MutInsert, ImageID: 2}},
		{"merge unknown image", Mutation{Kind: MutMerge, ImageID: 9, Version: 1, Added: []string{key(repo, 1)}}},
		{"merge unknown package", Mutation{Kind: MutMerge, ImageID: 1, Version: 1, Added: []string{"no/such/pkg"}}},
		{"merge with one unknown package", Mutation{Kind: MutMerge, ImageID: 1, Version: 1, Added: []string{key(repo, 1), "no/such/pkg"}}},
		{"merge adds nothing", Mutation{Kind: MutMerge, ImageID: 1, Version: 1}},
		{"merge on wrong base", Mutation{Kind: MutMerge, ImageID: 1, Version: 2, Added: []string{key(repo, 1)}}},
		{"legacy merge unknown package", Mutation{Kind: MutMerge, ImageID: 1, Version: 1, Packages: []string{"no/such/pkg"}}},
		{"delete unknown", Mutation{Kind: MutDelete, ImageID: 9}},
		{"split unknown image", Mutation{Kind: MutSplit, ImageID: 9, Packages: []string{key(repo, 0)}}},
		{"split unknown package", Mutation{Kind: MutSplit, ImageID: 1, Packages: []string{"no/such/pkg"}}},
		{"split to nothing", Mutation{Kind: MutSplit, ImageID: 1, Version: 1}},
		{"unknown kind", Mutation{Kind: "frobnicate", ImageID: 1}},
	}
	for _, tc := range cases {
		if err := m.ApplyMutation(tc.mut); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	// Failed applications must not have corrupted anything.
	if err := m.CheckIntegrity(); err != nil {
		t.Fatalf("invariants after rejected mutations: %v", err)
	}
	if got := m.ExportState(); !reflect.DeepEqual(got, before) {
		t.Fatalf("rejected mutations changed the cache:\n got %+v\nwant %+v", got, before)
	}

	// Inside one replay pass a rejected record changes nothing either —
	// not even what the pass has pending for the image — so a pass over
	// the good records with bad ones after them ends where the good
	// records alone do.
	good := []Mutation{
		{Kind: MutInsert, ImageID: 1, LastUse: 1, Packages: []string{key(repo, 0)}},
		{Kind: MutMerge, ImageID: 1, LastUse: 2, Version: 1, Merges: 1, Added: []string{key(repo, 2)}},
		{Kind: MutMerge, ImageID: 1, LastUse: 3, Version: 2, Merges: 2, Added: []string{key(repo, 3), key(repo, 4)}},
	}
	rejected := map[int][]Mutation{ // by the good record they follow
		1: {
			{Kind: MutMerge, ImageID: 1, Version: 2, Added: []string{key(repo, 5), "no/such/pkg"}},
			{Kind: MutMerge, ImageID: 1, Version: 3, Added: []string{key(repo, 5)}},
		},
	}
	for _, tc := range cases {
		rejected[0] = append(rejected[0], tc.mut)
	}
	replay := func(bad bool) ManagerState {
		sm, err := NewSharded(repo, Config{MinHash: DefaultMinHash()})
		if err != nil {
			t.Fatal(err)
		}
		err = sm.Replay(func(next func(*Record) error) {
			apply := resolved(repo, next)
			for i, mut := range good {
				if err := apply(mut); err != nil {
					t.Fatalf("%s of image %d: %v", mut.Kind, mut.ImageID, err)
				}
				for _, r := range rejected[i] {
					if bad && apply(r) == nil {
						t.Errorf("after record %d, %+v: no error in a pass", i, r)
					}
				}
			}
		})
		if err != nil {
			t.Fatalf("settling the pass: %v", err)
		}
		if err := sm.CheckIntegrity(); err != nil {
			t.Fatalf("invariants after the pass: %v", err)
		}
		return sm.ExportState()
	}
	if got, want := replay(true), replay(false); !reflect.DeepEqual(got, want) {
		t.Fatalf("rejected records changed the pass:\n got %+v\nwant %+v", got, want)
	}
}

// TestReplayPassMatchesPerRecord: one replay pass over a sharded
// cache's whole mutation stream — merges as deltas, each surviving
// image settled once at the end — rebuilds what per-record replay and
// the live cache hold, signatures and bands included.
func TestReplayPassMatchesPerRecord(t *testing.T) {
	repo := flatRepo(t, 24, 10)
	rec := &recorder{}
	cfg := Config{Alpha: 0.8, Capacity: 240, MinHash: DefaultMinHash(), Shards: 2}
	live, err := NewSharded(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	live.SetCommitHook(rec)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		ids := make([]pkggraph.PkgID, 1+rng.Intn(3))
		for j := range ids {
			ids[j] = pkggraph.PkgID(rng.Intn(repo.Len()))
		}
		if _, err := live.Request(spec.New(ids)); err != nil {
			t.Fatal(err)
		}
		if (i+1)%25 == 0 {
			if _, err := live.Prune(0.5, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	kinds := map[MutationKind]int{}
	for _, mut := range rec.muts {
		kinds[mut.Kind]++
	}
	if kinds[MutMerge] == 0 || kinds[MutDelete] == 0 || kinds[MutSplit] == 0 {
		t.Fatalf("stream holds %v; want merges, deletes and splits", kinds)
	}

	pass, err := NewSharded(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pass.Replay(func(next func(*Record) error) {
		apply := resolved(repo, next)
		for i, mut := range rec.muts {
			if err := apply(mut); err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	perRecord, err := NewSharded(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, mut := range rec.muts {
		if err := perRecord.ApplyMutation(mut); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	want := live.ExportState()
	for name, sm := range map[string]*ShardedManager{"pass": pass, "per-record": perRecord} {
		if err := sm.CheckIntegrity(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := sm.ExportState(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s replay differs from the live cache:\n got %+v\nwant %+v", name, got, want)
		}
	}
	li, pi := live.Images(), pass.Images()
	for i := range li {
		if !reflect.DeepEqual(li[i].Signature(), pi[i].Signature()) {
			t.Fatalf("image %d: pass signs %v, live holds %v", li[i].ID, pi[i].Signature(), li[i].Signature())
		}
	}
}

// TestReplayRefusesOverlappingDelta: a merge delta names only packages
// its image lacked, so replay sums their sizes instead of re-sizing the
// union. A delta that repeats one breaks that, and settle refuses it
// with an error naming the image, in a pass and record by record.
func TestReplayRefusesOverlappingDelta(t *testing.T) {
	repo := flatRepo(t, 8, 10)
	muts := []Mutation{
		{Kind: MutInsert, ImageID: 3, LastUse: 1, Packages: []string{key(repo, 0), key(repo, 1)}},
		{Kind: MutMerge, ImageID: 3, LastUse: 2, Version: 1, Merges: 1, Added: []string{key(repo, 2), key(repo, 1)}},
	}
	m := mgr(t, repo, Config{})
	var err error
	for _, mut := range muts {
		if err = m.ApplyMutation(mut); err != nil {
			break
		}
	}
	if err == nil || !strings.Contains(err.Error(), "image 3") {
		t.Fatalf("per-record replay of an overlapping delta: err = %v, want one naming image 3", err)
	}
	sm, err := NewSharded(repo, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = sm.Replay(func(next func(*Record) error) {
		apply := resolved(repo, next)
		for _, mut := range muts {
			if err := apply(mut); err != nil {
				t.Fatalf("%s: %v", mut.Kind, err)
			}
		}
	})
	if err == nil || !strings.Contains(err.Error(), "image 3") {
		t.Fatalf("a pass over an overlapping delta: err = %v, want one naming image 3", err)
	}
}

// TestApplyMergeDeltaAndLegacy: a delta merge record and a full-list
// one from an older log rebuild the same image, and a delta is applied
// only to the version it was computed against — a replayed, reordered
// or orphaned one is refused with ErrDeltaBase and changes nothing.
func TestApplyMergeDeltaAndLegacy(t *testing.T) {
	repo := flatRepo(t, 8, 10)
	insert := Mutation{Kind: MutInsert, ImageID: 1, LastUse: 1, RequestBytes: 10, Packages: []string{key(repo, 3)}}
	delta := []Mutation{
		insert,
		{Kind: MutMerge, ImageID: 1, LastUse: 2, Version: 1, Merges: 1, RequestBytes: 20, Added: []string{key(repo, 5), key(repo, 0)}},
		{Kind: MutMerge, ImageID: 1, LastUse: 3, Version: 2, Merges: 2, RequestBytes: 10, Added: []string{key(repo, 4)}},
	}
	legacy := []Mutation{
		insert,
		{Kind: MutMerge, ImageID: 1, LastUse: 2, Version: 1, Merges: 1, RequestBytes: 20, Packages: []string{key(repo, 0), key(repo, 3), key(repo, 5)}},
		{Kind: MutMerge, ImageID: 1, LastUse: 3, Version: 2, Merges: 2, RequestBytes: 10, Packages: []string{key(repo, 0), key(repo, 3), key(repo, 4), key(repo, 5)}},
	}
	replay := func(muts []Mutation) *Manager {
		m := mgr(t, repo, Config{Alpha: 0.5, MinHash: DefaultMinHash()})
		for i, mut := range muts {
			if err := m.ApplyMutation(mut); err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
		}
		if err := m.CheckIntegrity(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
		return m
	}
	m := replay(delta)
	want := m.ExportState()
	if got := replay(legacy).ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy full-list replay differs from delta replay:\n got %+v\nwant %+v", got, want)
	}
	for _, version := range []uint64{1, 2, 4} { // replayed, replayed, one record missing
		err := m.ApplyMutation(Mutation{Kind: MutMerge, ImageID: 1, LastUse: 9, Version: version, Merges: 3, Added: []string{key(repo, 7)}})
		if !errors.Is(err, ErrDeltaBase) {
			t.Errorf("delta yielding version %d on an image at version 2: err = %v, want ErrDeltaBase", version, err)
		}
	}
	if got := m.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("refused deltas changed the cache:\n got %+v\nwant %+v", got, want)
	}
}

var keysSink []string

// BenchmarkKeysOf renders a 2,000-package spec's keys, the work every
// insert record and checkpoint image costs. `make bench-guard` holds it
// to the one slice allocation: the keys themselves come from the
// repository's table, never from concatenation.
func BenchmarkKeysOf(b *testing.B) {
	repo := flatRepo(b, 4000, 10)
	m := MustNewManager(repo, Config{})
	ids := make([]pkggraph.PkgID, 0, 2000)
	for i := 0; i < repo.Len(); i += 2 {
		ids = append(ids, pkggraph.PkgID(i))
	}
	s := spec.New(ids)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keysSink = m.keysOf(s)
	}
}

// resolved adapts a replay pass's apply to key-form mutations, resolved
// as ApplyMutation resolves them.
func resolved(repo *pkggraph.Repo, apply func(*Record) error) func(Mutation) error {
	return func(mut Mutation) error {
		var r Record
		r.Resolve(repo, mut)
		return apply(&r)
	}
}
