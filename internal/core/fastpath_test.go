package core

import (
	"reflect"
	"testing"

	"repro/internal/workload"
)

// TestOrdSurvivesSnapshotRoundTrip pins the insertion-ordinal
// bookkeeping the merge scan's band enumeration depends on for
// stable-sort tie-breaking: after ImportState — of a whole checkpoint
// or of the image list alone, as /v1/restore takes it — the ordinals
// must be strictly increasing in image order (CheckIntegrity enforces
// this), and the imported manager must keep answering identically to
// the donor.
func TestOrdSurvivesSnapshotRoundTrip(t *testing.T) {
	repo := concRepo(t)
	cfg := Config{Alpha: 0.6, Capacity: repo.TotalSize() / 3, MinHash: DefaultMinHash()}
	m := mgr(t, repo, cfg)
	gen := workload.NewDepClosure(repo, 7)
	for i := 0; i < 200; i++ {
		request(t, m, gen.Next())
	}

	imported := mgr(t, repo, cfg)
	if err := imported.ImportState(m.ExportState()); err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	if err := imported.CheckIntegrity(); err != nil {
		t.Fatalf("after ImportState: %v", err)
	}
	restored := mgr(t, repo, cfg)
	if err := restored.ImportState(ManagerState{Images: m.ExportState().Images}); err != nil {
		t.Fatalf("ImportState of the image list: %v", err)
	}
	if err := restored.CheckIntegrity(); err != nil {
		t.Fatalf("after ImportState of the image list: %v", err)
	}

	// The donor and the imported copy must stay in lockstep on fresh
	// traffic — ordinals reorder deterministically on import, so band
	// tie-breaking must still agree.
	for i := 0; i < 100; i++ {
		s := gen.Next()
		a := request(t, m, s)
		b := request(t, imported, s)
		if a != b {
			t.Fatalf("request %d after import: donor %+v, imported %+v", i, a, b)
		}
	}
	if !reflect.DeepEqual(m.ExportState(), imported.ExportState()) {
		t.Fatal("donor and imported states diverge after further traffic")
	}
}
