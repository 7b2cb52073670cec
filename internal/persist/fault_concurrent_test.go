package persist_test

import (
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/persist"
)

// TestConcurrentLoadSurvivesInjectedFaults extends the single-threaded
// truncation tests to concurrent load: four goroutines drive a
// persistent one-shard ShardedManager through a filesystem that injects a
// sync failure and a torn write mid-run, then the process "loses
// power" with a torn tail. The WAL must degrade to its sticky error
// without disturbing the serving path, and recovery from the damaged
// directory must yield a consistent prefix of the pre-crash state.
func TestConcurrentLoadSurvivesInjectedFaults(t *testing.T) {
	const (
		seed    = int64(42)
		workers = 4
		each    = 400
	)
	dir := t.TempDir()
	repo := check.SmallRepo(seed)
	mcfg := core.Config{Alpha: 0.6, Capacity: repo.TotalSize() / 3}

	ffs := check.NewFaultFS(check.FaultPlan{FailSyncAt: 300, ShortWriteAt: 500})
	store, err := persist.Open(dir, persist.Options{
		FS:           ffs,
		SyncPolicy:   persist.FsyncAlways,
		SegmentBytes: 32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	cmgr, _, err := store.RecoverSharded(repo, mcfg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stream := check.NewStream(repo, seed+int64(w))
			for i := 0; i < each; i++ {
				if _, err := cmgr.Request(stream.Next()); err != nil {
					errs[w] = err
					return
				}
				store.WaitDurable() // sticky error expected once the fault fires
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: request failed under injected persist faults: %v", w, err)
		}
	}
	if got := cmgr.Stats().Requests; got != workers*each {
		t.Fatalf("served %d requests, want %d — the cache must keep serving after WAL degradation", got, workers*each)
	}
	if ffs.Injected() == 0 {
		t.Fatal("no fault fired; the plan's op counts no longer match the workload")
	}
	if store.Err() == nil {
		t.Fatal("store has no sticky error despite an injected fault")
	}
	preClock := cmgr.ExportState().Clock

	if err := ffs.Crash(check.CrashPower, 17); err != nil {
		t.Fatal(err)
	}

	// The next life reads the damaged directory through the real
	// filesystem: injected damage must be indistinguishable from real
	// crash damage.
	store2, err := persist.Open(dir, persist.Options{SyncPolicy: persist.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	mgr2, rec, err := store2.Recover(repo, mcfg)
	if err != nil {
		t.Fatalf("recovery from fault-damaged directory: %v", err)
	}
	if err := mgr2.CheckIntegrity(); err != nil {
		t.Fatalf("recovered state is inconsistent: %v", err)
	}
	if got := mgr2.Clock(); got > preClock {
		t.Fatalf("recovered clock %d exceeds pre-crash clock %d (recovery invented state)", got, preClock)
	}
	t.Logf("recovered clock %d of %d after %d injected fault(s); report: %+v", mgr2.Clock(), preClock, ffs.Injected(), rec)
}
