package persist_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/persist"
)

// healHarness drives a persistent manager through an injected WAL
// failure and returns everything the heal tests need.
type healHarness struct {
	dir   string
	ffs   *check.FaultFS
	store *persist.Store
	mgr   *core.ShardedManager
	cfg   core.Config
}

func newHealHarness(t *testing.T, plan check.FaultPlan) (*healHarness, *check.Stream) {
	t.Helper()
	const seed = int64(7)
	dir := t.TempDir()
	repo := check.SmallRepo(seed)
	cfg := core.Config{Alpha: 0.6, Capacity: repo.TotalSize() / 3}
	ffs := check.NewFaultFS(plan)
	store, err := persist.Open(dir, persist.Options{FS: ffs, SyncPolicy: persist.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	mgr, _, err := store.RecoverSharded(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &healHarness{dir: dir, ffs: ffs, store: store, mgr: mgr, cfg: cfg}, check.NewStream(repo, seed)
}

// driveUntilSticky issues durable requests until the injected fault
// trips the store.
func (h *healHarness) driveUntilSticky(t *testing.T, stream *check.Stream) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if _, err := h.mgr.Request(stream.Next()); err != nil {
			t.Fatal(err)
		}
		h.store.WaitDurable()
		if h.store.Err() != nil {
			return
		}
	}
	t.Fatal("fault never fired; the plan's op counts no longer match the workload")
}

func TestHealClearsStickyAndTaint(t *testing.T) {
	h, stream := newHealHarness(t, check.FaultPlan{FailWriteAt: 40})
	seedRepo := check.SmallRepo(7)

	// A durable pre-failure insert must never become tainted.
	first, err := h.mgr.Request(stream.Next())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.store.WaitDurable(); err != nil {
		t.Fatal(err)
	}

	h.driveUntilSticky(t, stream)

	// Mutations while sticky are dropped: any insert/merge acked from
	// memory now names an image recovery cannot rebuild.
	var stickyInsert core.Result
	found := false
	for i := 0; i < 500 && !found; i++ {
		res, err := h.mgr.Request(stream.Next())
		if err != nil {
			t.Fatal(err)
		}
		if res.Op == core.OpInsert || res.Op == core.OpMerge {
			stickyInsert, found = res, true
		}
	}
	if !found {
		t.Fatal("workload produced no insert/merge while sticky")
	}
	if !h.store.Tainted(stickyInsert.ImageID) {
		t.Fatalf("image %d inserted while sticky is not tainted", stickyInsert.ImageID)
	}
	if h.store.Tainted(first.ImageID) && first.ImageID != stickyInsert.ImageID {
		t.Fatalf("durable pre-failure image %d is tainted", first.ImageID)
	}
	if h.store.TaintedCount() == 0 {
		t.Fatal("TaintedCount = 0 with a sticky store and dropped inserts")
	}

	// The probe write heals the store in place.
	if tail, _, _ := h.store.LogBytes(); tail == 0 {
		t.Fatal("the store reports no WAL tail before the heal")
	}
	state := h.mgr.ExportState()
	if _, err := h.store.Checkpoint(state); err != nil {
		t.Fatalf("Heal through a recovered filesystem: %v", err)
	}
	// The probe checkpoint covers everything: the tail starts over and
	// the next size threshold is weighed against the probe's size.
	probe, err := filepath.Glob(filepath.Join(h.dir, "checkpoint-*.ckpt"))
	if err != nil || len(probe) != 1 {
		t.Fatalf("after Heal the directory holds checkpoints %v (%v), want the probe alone", probe, err)
	}
	fi, err := os.Stat(probe[0])
	if err != nil {
		t.Fatal(err)
	}
	if tail, ckpt, _ := h.store.LogBytes(); tail != 0 || ckpt != fi.Size() {
		t.Fatalf("after Heal LogBytes = %d, %d; want a reset tail and the probe checkpoint's %d bytes", tail, ckpt, fi.Size())
	}
	if err := h.store.Err(); err != nil {
		t.Fatalf("sticky error survived Heal: %v", err)
	}
	if h.store.TaintedCount() != 0 {
		t.Fatalf("TaintedCount = %d after Heal, want 0", h.store.TaintedCount())
	}
	if h.store.Tainted(stickyInsert.ImageID) {
		t.Fatal("taint survived Heal despite the covering checkpoint")
	}
	if got := h.store.Heals(); got != 1 {
		t.Fatalf("Heals = %d, want 1", got)
	}

	// Power-loss immediately after the heal: the probe checkpoint alone
	// must reconstruct the exact healed state, dropped WAL records and
	// all.
	if err := h.ffs.Crash(check.CrashPower, 0); err != nil {
		t.Fatal(err)
	}
	store2, err := persist.Open(h.dir, persist.Options{SyncPolicy: persist.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	mgr2, _, err := store2.RecoverSharded(seedRepo, h.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr2.CheckIntegrity(); err != nil {
		t.Fatalf("post-heal recovery inconsistent: %v", err)
	}
	want, _ := json.Marshal(state)
	got, _ := json.Marshal(mgr2.ExportState())
	if string(want) != string(got) {
		t.Fatalf("recovered state diverges from healed state\nwant: %s\ngot:  %s", want, got)
	}
}

func TestHealRetriesAfterFailedProbe(t *testing.T) {
	// FailWriteAt trips the store; ShortWriteAt tears the first heal's
	// probe checkpoint, so the probe itself fails and the store must
	// stay failed until a later probe succeeds.
	h, stream := newHealHarness(t, check.FaultPlan{FailWriteAt: 40, ShortWriteAt: 41})
	h.driveUntilSticky(t, stream)

	state := h.mgr.ExportState()
	if _, err := h.store.Checkpoint(state); err == nil {
		t.Fatal("Heal succeeded despite the torn probe write")
	}
	if h.store.Err() == nil {
		t.Fatal("store healthy after a failed probe")
	}
	if got := h.store.Heals(); got != 0 {
		t.Fatalf("Heals = %d after failed probe, want 0", got)
	}

	// Faults exhausted: the next probe goes through.
	if _, err := h.store.Checkpoint(state); err != nil {
		t.Fatalf("second Heal: %v", err)
	}
	if err := h.store.Err(); err != nil {
		t.Fatalf("sticky error after successful retry: %v", err)
	}
	if got := h.store.Heals(); got != 1 {
		t.Fatalf("Heals = %d, want 1", got)
	}

	// Post-heal commits are durable again.
	if _, err := h.mgr.Request(stream.Next()); err != nil {
		t.Fatal(err)
	}
	if err := h.store.WaitDurable(); err != nil {
		t.Fatalf("WaitDurable after heal: %v", err)
	}
}

// failOpenFS delegates to an inner FS but fails OpenFile while armed —
// the rotation failure mode a full or read-only directory produces.
type failOpenFS struct {
	persist.FS
	armed bool
}

func (f *failOpenFS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	if f.armed {
		return nil, errors.New("injected: open refused")
	}
	return f.FS.OpenFile(name, flag, perm)
}

// TestFailedRotationTripsSticky: a checkpoint whose segment rotation
// cannot open the next WAL file has already sealed the old one. The
// store must go sticky immediately — not sit on a closed handle until
// the next append trips over it — so the degraded-mode probe knows to
// heal.
func TestFailedRotationTripsSticky(t *testing.T) {
	const seed = int64(7)
	dir := t.TempDir()
	repo := check.SmallRepo(seed)
	cfg := core.Config{Alpha: 0.6}
	fs := &failOpenFS{FS: persist.OSFS{}}
	store, err := persist.Open(dir, persist.Options{FS: fs, SyncPolicy: persist.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	mgr, _, err := store.RecoverSharded(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := check.NewStream(repo, seed)
	if _, err := mgr.Request(stream.Next()); err != nil {
		t.Fatal(err)
	}
	if err := store.WaitDurable(); err != nil {
		t.Fatal(err)
	}

	fs.armed = true
	if _, err := store.Checkpoint(mgr.ExportState()); err == nil {
		t.Fatal("checkpoint succeeded with segment opens refused")
	}
	if store.Err() == nil {
		t.Fatal("failed rotation left the store healthy; the heal probe would never run")
	}

	// The probe heals it in place once the directory is writable again.
	fs.armed = false
	if _, err := store.Checkpoint(mgr.ExportState()); err != nil {
		t.Fatalf("Heal after failed rotation: %v", err)
	}
	if err := store.Err(); err != nil {
		t.Fatalf("sticky error survived Heal: %v", err)
	}
	if _, err := mgr.Request(stream.Next()); err != nil {
		t.Fatal(err)
	}
	if err := store.WaitDurable(); err != nil {
		t.Fatalf("WaitDurable after heal: %v", err)
	}
}

func TestHealRefusesClosedStore(t *testing.T) {
	h, stream := newHealHarness(t, check.FaultPlan{})
	if _, err := h.mgr.Request(stream.Next()); err != nil {
		t.Fatal(err)
	}
	state := h.mgr.ExportState()
	if err := h.store.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.store.Checkpoint(state); err == nil {
		t.Fatal("Heal resurrected a closed store")
	}
}
