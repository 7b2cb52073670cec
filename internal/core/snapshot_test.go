package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/pkggraph"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	repo := flatRepo(t, 20, 10)
	m := mgr(t, repo, Config{Alpha: 0.6})
	request(t, m, sp(1, 2, 3))
	request(t, m, sp(1, 2, 4)) // merge
	request(t, m, sp(10, 11))  // insert
	snaps := m.ExportState().Images
	if len(snaps) != 2 {
		t.Fatalf("snapshot has %d images, want 2", len(snaps))
	}

	// The image list alone, as /v1/snapshot serves it.
	m2 := mgr(t, repo, Config{Alpha: 0.6})
	if err := m2.ImportState(ManagerState{Images: snaps}); err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	if m2.Len() != m.Len() || m2.TotalData() != m.TotalData() || m2.UniqueData() != m.UniqueData() {
		t.Fatalf("restored state differs: %d/%d vs %d/%d",
			m2.Len(), m2.TotalData(), m.Len(), m.TotalData())
	}
	// Behaviour equivalence: a subset request hits in both.
	r1 := request(t, m, sp(1, 2))
	r2 := request(t, m2, sp(1, 2))
	if r1.Op != OpHit || r2.Op != OpHit || r1.ImageSize != r2.ImageSize {
		t.Fatalf("restored manager behaves differently: %+v vs %+v", r1, r2)
	}
}

func TestRestorePreservesLRUOrder(t *testing.T) {
	repo := flatRepo(t, 20, 100)
	m := mgr(t, repo, Config{Alpha: 0, Capacity: 250})
	request(t, m, sp(1))
	request(t, m, sp(2))
	request(t, m, sp(1)) // 2 is now LRU

	m2 := mgr(t, repo, Config{Alpha: 0, Capacity: 250})
	if err := m2.ImportState(ManagerState{Images: m.ExportState().Images}); err != nil {
		t.Fatal(err)
	}
	// Inserting a third image must evict {2}, as it would in m.
	request(t, m2, sp(3))
	if r := request(t, m2, sp(1)); r.Op != OpHit {
		t.Fatal("restored LRU evicted the recently used image")
	}
	if r := request(t, m2, sp(2)); r.Op != OpInsert {
		t.Fatal("restored LRU kept the stale image")
	}
}

// TestRestoreCapacityOverflow: a snapshot larger than the configured
// capacity restores whole (supporting capacity shrinks across a
// restart); the next live request brings the cache back under budget.
func TestRestoreCapacityOverflow(t *testing.T) {
	repo := flatRepo(t, 10, 100)
	big := mgr(t, repo, Config{Alpha: 0})
	request(t, big, sp(1))
	request(t, big, sp(2))
	request(t, big, sp(3))

	small := mgr(t, repo, Config{Alpha: 0, Capacity: 250})
	if err := small.ImportState(big.ExportState()); err != nil {
		t.Fatalf("over-capacity ImportState: %v", err)
	}
	if small.Len() != 3 || small.TotalData() != 300 {
		t.Fatalf("restore trimmed the snapshot early: %d images, %d bytes", small.Len(), small.TotalData())
	}
	request(t, small, sp(4))
	if small.TotalData() > 250 {
		t.Fatalf("cache still over capacity after a request: %d bytes", small.TotalData())
	}
	// LRU means {3} (and the new {4}) survive; {1} and {2} go.
	if r := request(t, small, sp(3)); r.Op != OpHit {
		t.Fatalf("most-recent restored image was evicted (op %v)", r.Op)
	}
	if err := small.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotPruneSnapshotRoundTrip: prune a manager mid-life, carry
// its state through ImportState, and verify the split survives the trip
// exactly.
func TestSnapshotPruneSnapshotRoundTrip(t *testing.T) {
	repo := flatRepo(t, 20, 10)
	m := mgr(t, repo, Config{Alpha: 0.5})
	request(t, m, sp(1, 2, 3, 4))
	if _, err := m.Prune(0.5, 1); err != nil { // reset the insert-seeded hot window
		t.Fatalf("Prune: %v", err)
	}
	request(t, m, sp(1, 2)) // hot subset: {1,2} of a 4-package image
	request(t, m, sp(1, 2))
	splits, err := m.Prune(0.5, 2)
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if len(splits) != 1 {
		t.Fatalf("expected 1 split, got %+v", splits)
	}

	st := m.ExportState()
	m2 := mgr(t, repo, Config{Alpha: 0.5})
	if err := m2.ImportState(st); err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	if got := m2.ExportState(); !reflect.DeepEqual(got, st) {
		t.Fatalf("pruned state changed in round trip:\n got %+v\nwant %+v", got, st)
	}
	if err := m2.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestImportStateRoundTrip: ImportState is the checkpoint loader; it
// must preserve IDs, versions, the clock, ID allocation, and stats
// bit for bit.
func TestImportStateRoundTrip(t *testing.T) {
	repo := flatRepo(t, 20, 10)
	m := mgr(t, repo, Config{Alpha: 0.5, Capacity: 120})
	request(t, m, sp(1, 2, 3))
	request(t, m, sp(1, 2, 3, 4)) // merge -> version 1
	request(t, m, sp(10, 11))
	request(t, m, sp(12, 13)) // evicts under the 120-byte cap
	st := m.ExportState()

	m2 := mgr(t, repo, Config{Alpha: 0.5, Capacity: 120})
	if err := m2.ImportState(st); err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	if err := m2.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if got := m2.ExportState(); !reflect.DeepEqual(got, st) {
		t.Fatalf("export/import/export not a fixed point:\n got %+v\nwant %+v", got, st)
	}
	if m2.Stats() != m.Stats() {
		t.Fatalf("stats lost: %+v vs %+v", m2.Stats(), m.Stats())
	}
	// ID allocation continues where the donor left off.
	r := request(t, m2, sp(15))
	if wantNext := st.NextID; r.ImageID != wantNext {
		t.Fatalf("new image got ID %d, want %d", r.ImageID, wantNext)
	}
}

func TestRestoreIntoNonEmptyFails(t *testing.T) {
	repo := flatRepo(t, 5, 1)
	m := mgr(t, repo, Config{Alpha: 0})
	request(t, m, sp(1))
	if err := m.ImportState(ManagerState{}); err == nil {
		t.Fatal("ImportState into non-empty manager accepted")
	}
}

// rejectImages imports an image list into an empty manager and checks
// that it is refused with an error containing want, leaving the manager
// as empty as it was.
func rejectImages(t *testing.T, repo *pkggraph.Repo, imgs []ImageSnapshot, want string) {
	t.Helper()
	m := mgr(t, repo, Config{})
	empty := m.ExportState()
	if err := m.ImportState(ManagerState{Images: imgs}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("error %v, want one containing %q", err, want)
	}
	if got := m.ExportState(); !reflect.DeepEqual(got, empty) {
		t.Errorf("refused import left %+v", got)
	}
}

func TestRestoreRejectsUnknownPackage(t *testing.T) {
	rejectImages(t, flatRepo(t, 5, 1), []ImageSnapshot{
		{ID: 0, Packages: []string{"ghost/1/p"}, LastUse: 1}}, `image 0: core: unknown package "ghost/1/p"`)
}

func TestRestoreRejectsEmptyImage(t *testing.T) {
	rejectImages(t, flatRepo(t, 5, 1), []ImageSnapshot{{ID: 0, LastUse: 1}}, "image 0 is empty")
}

func TestImportStateRejects(t *testing.T) {
	repo := flatRepo(t, 5, 10)
	// Each refusal names the image by its ID.
	cases := []struct {
		name string
		st   ManagerState
		want string
	}{
		{"duplicate ID", ManagerState{Images: []ImageSnapshot{
			{ID: 7, Packages: []string{key(repo, 1)}, LastUse: 1},
			{ID: 7, Packages: []string{key(repo, 2)}, LastUse: 2}}}, "two images have ID 7"},
		{"unknown package after a good image", ManagerState{Images: []ImageSnapshot{
			{ID: 0, Packages: []string{key(repo, 1)}, LastUse: 1},
			{ID: 5, Packages: []string{"ghost/1/p"}, LastUse: 2}}}, "image 5: "},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { rejectImages(t, repo, tc.st.Images, tc.want) })
	}
}

func TestSnapshotWithMinHashRestores(t *testing.T) {
	repo := flatRepo(t, 20, 10)
	cfg := Config{Alpha: 0.6, MinHash: DefaultMinHash()}
	m := mgr(t, repo, cfg)
	request(t, m, sp(1, 2, 3))
	m2 := mgr(t, repo, cfg)
	if err := m2.ImportState(m.ExportState()); err != nil {
		t.Fatal(err)
	}
	// Signature-dependent paths must still work after the import.
	if r := request(t, m2, sp(1, 2)); r.Op != OpHit {
		t.Fatalf("subset hit failed after minhash restore: %v", r.Op)
	}
	if r := request(t, m2, sp(1, 2, 4)); r.Op != OpMerge {
		t.Fatalf("merge failed after minhash restore: %v", r.Op)
	}
}
