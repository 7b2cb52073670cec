package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/persist"
	"repro/internal/pkggraph"
)

// readState loads the checkpoint-format cache state a run left behind.
func readState(t *testing.T, cacheDir string) persist.Checkpoint {
	t.Helper()
	ck, err := persist.ReadCheckpointFile(filepath.Join(cacheDir, stateName))
	if err != nil {
		t.Fatalf("state not persisted: %v", err)
	}
	return ck
}

// writeSmallRepo saves a scaled-down repository file so tests avoid
// generating the full 9,660-package default on every run.
func writeSmallRepo(t *testing.T) string {
	t.Helper()
	cfg := pkggraph.DefaultGenConfig()
	cfg.CoreFamilies = 2
	cfg.FrameworkFamilies = 5
	cfg.LibraryFamilies = 20
	cfg.ApplicationFamilies = 33
	repo := pkggraph.MustGenerate(cfg, 42)
	path := filepath.Join(t.TempDir(), "repo.jsonl")
	if err := repo.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// specFileFor writes a spec file containing the given package keys.
func specFileFor(t *testing.T, repoFile string, n int) string {
	t.Helper()
	repo, err := pkggraph.LoadFile(repoFile)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.CreateTemp(t.TempDir(), "*.spec")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		id := pkggraph.PkgID((i * 37) % repo.Len())
		if _, err := f.WriteString(repo.Package(id).Key() + "\n"); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return f.Name()
}

func TestRunInsertThenHitPersists(t *testing.T) {
	repoFile := writeSmallRepo(t)
	cacheDir := t.TempDir()
	specFile := specFileFor(t, repoFile, 2)

	if err := run(cacheDir, specFile, 0.8, 0, 1, repoFile, false, false, []string{"./job.sh"}); err != nil {
		t.Fatalf("first run: %v", err)
	}
	st := readState(t, cacheDir)
	if len(st.State.Images) != 1 {
		t.Fatalf("state holds %d images, want 1", len(st.State.Images))
	}
	if st.Meta["repo_file"] != repoFile {
		t.Fatalf("state meta records repo %q, want %q", st.Meta["repo_file"], repoFile)
	}
	// Second invocation loads the state and hits.
	if err := run(cacheDir, specFile, 0.8, 0, 1, repoFile, false, false, nil); err != nil {
		t.Fatalf("second run: %v", err)
	}
	st2 := readState(t, cacheDir)
	if len(st2.State.Images) != 1 {
		t.Fatalf("hit should not create images: %d", len(st2.State.Images))
	}
	// Checkpoint state is cumulative: the hit keeps the image identity
	// and the stats carry across invocations.
	if st2.State.Images[0].ID != st.State.Images[0].ID {
		t.Errorf("image ID changed across a hit: %d -> %d", st.State.Images[0].ID, st2.State.Images[0].ID)
	}
	if st2.State.Stats.Requests != 2 || st2.State.Stats.Hits != 1 {
		t.Errorf("cumulative stats = %+v, want 2 requests / 1 hit", st2.State.Stats)
	}
}

func TestRunStatsMode(t *testing.T) {
	repoFile := writeSmallRepo(t)
	if err := run(t.TempDir(), "", 0.8, 0, 1, repoFile, false, true, nil); err != nil {
		t.Fatalf("stats on empty cache: %v", err)
	}
}

func TestRunMissingSpec(t *testing.T) {
	repoFile := writeSmallRepo(t)
	if err := run(t.TempDir(), "", 0.8, 0, 1, repoFile, false, false, nil); err == nil {
		t.Fatal("missing -spec accepted")
	}
	if err := run(t.TempDir(), "/nonexistent.spec", 0.8, 0, 1, repoFile, false, false, nil); err == nil {
		t.Fatal("nonexistent spec file accepted")
	}
}

func TestRunBadAlpha(t *testing.T) {
	repoFile := writeSmallRepo(t)
	specFile := specFileFor(t, repoFile, 1)
	if err := run(t.TempDir(), specFile, 3.0, 0, 1, repoFile, false, false, nil); err == nil {
		t.Fatal("alpha 3.0 accepted")
	}
}

func TestRunEmptySpecFile(t *testing.T) {
	repoFile := writeSmallRepo(t)
	empty := filepath.Join(t.TempDir(), "empty.spec")
	os.WriteFile(empty, []byte("# nothing\n"), 0o644)
	if err := run(t.TempDir(), empty, 0.8, 0, 1, repoFile, false, false, nil); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestRunMaterialize(t *testing.T) {
	repoFile := writeSmallRepo(t)
	specFile := specFileFor(t, repoFile, 1)
	if err := run(t.TempDir(), specFile, 0.8, 0, 1, repoFile, true, false, nil); err != nil {
		t.Fatalf("materialize: %v", err)
	}
}

func TestRunCorruptState(t *testing.T) {
	repoFile := writeSmallRepo(t)
	cacheDir := t.TempDir()
	os.WriteFile(filepath.Join(cacheDir, stateName), []byte("not a checkpoint frame"), 0o644)
	specFile := specFileFor(t, repoFile, 1)
	if err := run(cacheDir, specFile, 0.8, 0, 1, repoFile, false, false, nil); err == nil {
		t.Fatal("corrupt state accepted")
	}
}

// TestRunRepoMismatch: reusing a cache directory against a different
// repository is refused instead of resolving keys against the wrong
// package set.
func TestRunRepoMismatch(t *testing.T) {
	repoFile := writeSmallRepo(t)
	cacheDir := t.TempDir()
	specFile := specFileFor(t, repoFile, 1)
	if err := run(cacheDir, specFile, 0.8, 0, 1, repoFile, false, false, nil); err != nil {
		t.Fatal(err)
	}
	// Same repository content under a different path still mismatches:
	// identity is (seed, file) as given, conservatively.
	otherFile := filepath.Join(t.TempDir(), "other.jsonl")
	data, err := os.ReadFile(repoFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(otherFile, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(cacheDir, specFile, 0.8, 0, 1, otherFile, false, false, nil); err == nil {
		t.Fatal("repository mismatch accepted")
	}
}

func TestRunCapacityEvicts(t *testing.T) {
	repoFile := writeSmallRepo(t)
	cacheDir := t.TempDir()
	// Tiny capacity: each new image evicts the previous one.
	a := specFileFor(t, repoFile, 1)
	b := specFileFor(t, repoFile, 3)
	if err := run(cacheDir, a, 0.0, 0.000001, 1, repoFile, false, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := run(cacheDir, b, 0.0, 0.000001, 1, repoFile, false, false, nil); err != nil {
		t.Fatal(err)
	}
	st := readState(t, cacheDir)
	if len(st.State.Images) != 1 {
		t.Fatalf("capacity 1KB should keep a single (oversized) image, got %d", len(st.State.Images))
	}
}
