package check

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/persist"
)

func readAll(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFaultFSWriteFail(t *testing.T) {
	ffs := NewFaultFS(FaultPlan{FailWriteAt: 2})
	f, err := ffs.OpenFile(filepath.Join(t.TempDir(), "w"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("aaaa")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if _, err := f.Write([]byte("bbbb")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write 2: got %v, want ErrInjected", err)
	}
	if _, err := f.Write([]byte("cccc")); err != nil {
		t.Fatalf("write 3: %v", err)
	}
	f.Close()
	if got := string(readAll(t, f.Name())); got != "aaaacccc" {
		t.Fatalf("file contents %q; the failed write must leave no bytes", got)
	}
	if n := ffs.Injected(); n != 1 {
		t.Fatalf("Injected() = %d, want 1", n)
	}
}

func TestFaultFSShortWrite(t *testing.T) {
	ffs := NewFaultFS(FaultPlan{ShortWriteAt: 1})
	f, err := ffs.OpenFile(filepath.Join(t.TempDir(), "s"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("0123456789"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want ErrInjected", err)
	}
	if n != 5 {
		t.Fatalf("short write reported %d bytes, want 5", n)
	}
	f.Close()
	if got := string(readAll(t, f.Name())); got != "01234" {
		t.Fatalf("file contents %q, want the torn half", got)
	}
}

func TestFaultFSSyncFail(t *testing.T) {
	ffs := NewFaultFS(FaultPlan{FailSyncAt: 2})
	f, err := ffs.OpenFile(filepath.Join(t.TempDir(), "y"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("data")) // op 1
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync: got %v, want ErrInjected", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("next sync must succeed: %v", err)
	}
}

// TestFaultFSCrash pins the two crash models: kill keeps every written
// byte; power loss keeps synced bytes plus a bounded torn tail — and
// either way the dead process's filesystem refuses further work.
func TestFaultFSCrash(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode CrashMode
		torn int64
		want int
	}{
		{"kill-keeps-all", CrashKill, 0, 16},
		{"power-synced-only", CrashPower, 0, 8},
		{"power-torn-tail", CrashPower, 3, 11},
		{"power-torn-capped", CrashPower, 99, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ffs := NewFaultFS(FaultPlan{})
			path := filepath.Join(t.TempDir(), "c")
			f, err := ffs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte("synced__"))
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			f.Write([]byte("unsynced"))
			if err := ffs.Crash(tc.mode, tc.torn); err != nil {
				t.Fatal(err)
			}
			if got := len(readAll(t, path)); got != tc.want {
				t.Fatalf("%d bytes survived the crash, want %d", got, tc.want)
			}
			if _, err := ffs.Open(path); err == nil {
				t.Fatal("post-crash operation succeeded; the dead filesystem must refuse work")
			}
			if _, err := f.Write([]byte("x")); err == nil {
				t.Fatal("write on a pre-crash handle succeeded after the crash")
			}
		})
	}
}

// zeroFilled writes what a WAL segment's writer does, through ffs:
// a 32-byte extension of zeros, synced, overwritten in place by an
// 8-byte record, synced; then, unsynced, a second record over the
// zeros, an extension to 64 bytes and a third record.
func zeroFilled(t *testing.T, ffs *FaultFS) (string, persist.File) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal")
	f, err := ffs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	write := func(p string) {
		t.Helper()
		_, err := f.Write([]byte(p))
		step(err)
	}
	extend := func(off int64) {
		t.Helper()
		_, err := f.WriteAt(make([]byte, 32), off)
		step(err)
	}
	extend(0)
	step(f.Sync())
	write("record-1")
	step(f.Sync())
	write("record-2")
	extend(32)
	write("record-3")
	return path, f
}

// TestFaultFSZeroFilledCrash pins the power-loss model of a segment
// whose records overwrite zeros: the synced length stays, unsynced
// overwrites inside it revert to the zeros synced under them but for
// a torn prefix, and an unsynced extension is cut unless the torn
// prefix reaches into it; a kill keeps everything.
func TestFaultFSZeroFilledCrash(t *testing.T) {
	zeros := func(n int) string { return string(make([]byte, n)) }
	for _, tc := range []struct {
		name string
		mode CrashMode
		torn int64
		want string
	}{
		{"kill-keeps-all", CrashKill, 0, "record-1record-2record-3" + zeros(40)},
		{"power-reverts-to-zeros", CrashPower, 0, "record-1" + zeros(24)},
		{"power-torn-prefix", CrashPower, 3, "record-1rec" + zeros(21)},
		{"power-torn-into-extension", CrashPower, 30, "record-1record-2record-3" + zeros(14)},
		{"power-torn-capped", CrashPower, 99, "record-1record-2record-3" + zeros(40)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ffs := NewFaultFS(FaultPlan{})
			path, _ := zeroFilled(t, ffs)
			if got := ffs.InFlight(); got != 56 {
				t.Fatalf("InFlight() = %d, want the 56 bytes from the second record on", got)
			}
			if err := ffs.Crash(tc.mode, tc.torn); err != nil {
				t.Fatal(err)
			}
			if got := string(readAll(t, path)); got != tc.want {
				t.Fatalf("the crash left %q, want %q", got, tc.want)
			}
		})
	}
}

// TestFaultFSTruncate: a truncation is undone by a power loss until a
// sync covers it — the synced length stays, and zeros fill it.
func TestFaultFSTruncate(t *testing.T) {
	for _, synced := range []bool{false, true} {
		ffs := NewFaultFS(FaultPlan{})
		path, f := zeroFilled(t, ffs)
		if err := f.Truncate(16); err != nil {
			t.Fatal(err)
		}
		want := "record-1" + string(make([]byte, 24))
		if synced {
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			want = "record-1record-2"
		}
		if err := ffs.Crash(CrashPower, 0); err != nil {
			t.Fatal(err)
		}
		if got := string(readAll(t, path)); got != want {
			t.Fatalf("synced=%v: the crash left %q, want %q", synced, got, want)
		}
	}
}

// TestFaultFSStopAfter: writes, extensions, syncs and truncations are
// the plan's operations; once StopAfter of them are done every
// operation fails, and the files hold what they held at that boundary.
func TestFaultFSStopAfter(t *testing.T) {
	ffs := NewFaultFS(FaultPlan{StopAfter: 4})
	path := filepath.Join(t.TempDir(), "s")
	f, err := ffs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt(make([]byte, 8), 0) // op 1
	f.Sync()                      // op 2
	f.Write([]byte("abcd"))       // op 3
	if ffs.Stopped() {
		t.Fatal("stopped after 3 of 4 operations")
	}
	if err := f.Truncate(6); err != nil { // op 4
		t.Fatal(err)
	}
	if !ffs.Stopped() || ffs.Ops() != 4 {
		t.Fatalf("after 4 operations: Stopped() = %v, Ops() = %d", ffs.Stopped(), ffs.Ops())
	}
	if _, err := f.Write([]byte("x")); err == nil {
		t.Fatal("a write after the stop succeeded")
	}
	if err := f.Sync(); err == nil {
		t.Fatal("a sync after the stop succeeded")
	}
	if _, err := ffs.Open(path); err == nil {
		t.Fatal("an open after the stop succeeded")
	}
	if got := string(readAll(t, path)); got != "abcd\x00\x00" {
		t.Fatalf("the stopped machine's file holds %q", got)
	}
}

// TestFailedExtensionFailsStore: a zero-fill extension that fails
// outright or tears fails the store as a failed append does — the
// record it was for is tainted, and nothing is acknowledged.
func TestFailedExtensionFailsStore(t *testing.T) {
	repo := SmallRepo(1)
	s := NewStream(repo, 2).Next()
	for _, plan := range []FaultPlan{{FailWriteAt: 1}, {ShortWriteAt: 1}} {
		ffs := NewFaultFS(plan)
		st, err := persist.Open(t.TempDir(), persist.Options{FS: ffs, SyncPolicy: persist.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		sm, _, err := st.RecoverSharded(repo, core.Config{Alpha: 0.8})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sm.Request(s) // op 1 is the segment's first extension
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WaitDurable(); !errors.Is(err, ErrInjected) {
			t.Fatalf("%+v: WaitDurable = %v, want the injected extension fault", plan, err)
		}
		if !st.Tainted(res.ImageID) || ffs.Injected() != 1 || ffs.Ops() != 1 {
			t.Fatalf("%+v: image %d tainted = %v after %d operation(s) and %d fault(s); want it tainted and no record written",
				plan, res.ImageID, st.Tainted(res.ImageID), ffs.Ops(), ffs.Injected())
		}
		st.Close()
	}
}

func TestEventuallyPolls(t *testing.T) {
	n := 0
	if !Poll(testTimeout, func() bool { n++; return n >= 3 }) {
		t.Fatal("Poll gave up before the condition held")
	}
	if Poll(1, func() bool { return false }) {
		t.Fatal("Poll reported success for a condition that never holds")
	}
}

const testTimeout = 2e9 // 2s in nanoseconds, avoids importing time
