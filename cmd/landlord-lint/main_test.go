package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write writes one source file into dir.
func write(t *testing.T, dir, name, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

func scan(t *testing.T, dir string) ([]registration, []string) {
	t.Helper()
	regs, err := scanTree(dir)
	if err != nil {
		t.Fatalf("scanTree: %v", err)
	}
	return regs, findConflicts(regs)
}

func TestResolvesLiteralsFileConstsAndLocalConsts(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "a.go", `package p

const fileName = "landlord_file_total"
const fileHelp = "from a file const"

func a(reg *Registry) {
	reg.Counter("landlord_lit_total", "literal "+"concat")
	reg.Gauge(fileName, fileHelp)
}

func b(reg *Registry) {
	const name = "landlord_local_seconds"
	const help = "from a local const"
	reg.Histogram(name, help, nil)
}
`)
	regs, conflicts := scan(t, dir)
	if len(conflicts) != 0 {
		t.Fatalf("unexpected conflicts: %v", conflicts)
	}
	got := map[string]string{}
	for _, r := range regs {
		got[r.name] = r.kind
	}
	want := map[string]string{
		"landlord_lit_total":     "Counter",
		"landlord_file_total":    "Gauge",
		"landlord_local_seconds": "Histogram",
	}
	for name, kind := range want {
		if got[name] != kind {
			t.Fatalf("metric %s: got kind %q, want %q (all: %v)", name, got[name], kind, got)
		}
	}
}

func TestLocalConstsDoNotLeakAcrossFunctions(t *testing.T) {
	dir := t.TempDir()
	// Two functions reuse the idiomatic `const name` with different
	// values — the repo's registerContentionMetrics/registerRequestMetrics shape.
	write(t, dir, "a.go", `package p

func a(reg *Registry) {
	const name = "landlord_a_seconds"
	const help = "a"
	reg.Histogram(name, help, nil)
}

func b(reg *Registry) {
	const name = "landlord_b_seconds"
	const help = "b"
	reg.Histogram(name, help, nil)
}
`)
	regs, conflicts := scan(t, dir)
	if len(conflicts) != 0 {
		t.Fatalf("unexpected conflicts: %v", conflicts)
	}
	if len(regs) != 2 || regs[0].name == regs[1].name {
		t.Fatalf("want two distinct names, got %+v", regs)
	}
}

func TestFlagsKindConflict(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "a.go", `package p

func a(reg *Registry) {
	reg.Counter("landlord_x_total", "x")
	reg.Gauge("landlord_x_total", "x")
}
`)
	_, conflicts := scan(t, dir)
	if len(conflicts) != 1 || !strings.Contains(conflicts[0], "registered as Gauge") {
		t.Fatalf("want one kind conflict, got %v", conflicts)
	}
}

func TestFlagsHelpConflict(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "a.go", `package p

func a(reg *Registry) {
	reg.Counter("landlord_y_total", "one help")
}
`)
	write(t, dir, "b.go", `package p

func b(reg *Registry) {
	reg.Counter("landlord_y_total", "another help")
}
`)
	_, conflicts := scan(t, dir)
	if len(conflicts) != 1 || !strings.Contains(conflicts[0], "help") {
		t.Fatalf("want one help conflict, got %v", conflicts)
	}
}

func TestLabelVariantsAreNotConflicts(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "a.go", `package p

func a(reg *Registry) {
	reg.Counter("landlord_z_total", "same", Label{"op", "hit"})
	reg.Counter("landlord_z_total", "same", Label{"op", "merge"})
}
`)
	_, conflicts := scan(t, dir)
	if len(conflicts) != 0 {
		t.Fatalf("label variants flagged: %v", conflicts)
	}
}

func TestSkipsTestFilesAndDynamicNames(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "a_test.go", `package p

func a(reg *Registry) {
	reg.Counter("landlord_t_total", "from a test")
	reg.Gauge("landlord_t_total", "conflicting, but tests are exempt")
}
`)
	write(t, dir, "b.go", `package p

func b(reg *Registry, dynamic string) {
	reg.Counter(dynamic, "unresolvable name is skipped, not guessed")
}
`)
	regs, conflicts := scan(t, dir)
	if len(regs) != 0 || len(conflicts) != 0 {
		t.Fatalf("want nothing, got regs=%v conflicts=%v", regs, conflicts)
	}
}

// TestRepoIsClean runs the linter over the repository itself — the
// same invocation CI uses. A conflict here is a real bug.
func TestRepoIsClean(t *testing.T) {
	regs, conflicts := scan(t, "../..")
	if len(conflicts) != 0 {
		t.Fatalf("repository has metric conflicts:\n%s", strings.Join(conflicts, "\n"))
	}
	if len(regs) == 0 {
		t.Fatalf("scanned the repository but found no registrations")
	}
}

// TestImportAuditFindsOrphan: in a fixture module whose one command
// imports internal/used, which imports internal/deep, the package
// nothing imports is reported and the reachable ones are not.
func TestImportAuditFindsOrphan(t *testing.T) {
	dir := t.TempDir()
	for _, sub := range []string{"cmd/tool", "internal/used", "internal/deep", "internal/orphan"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	write(t, dir, "go.mod", "module fixture\n\ngo 1.22\n")
	write(t, dir, "cmd/tool/main.go", "package main\n\nimport _ \"fixture/internal/used\"\n\nfunc main() {}\n")
	write(t, dir, "internal/used/used.go", "package used\n\nimport _ \"fixture/internal/deep\"\n")
	write(t, dir, "internal/deep/deep.go", "package deep\n")
	write(t, dir, "internal/orphan/orphan.go", "package orphan\n")
	problems, err := auditImports(dir)
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for _, p := range problems {
		if strings.Contains(p, "reachable from no") {
			orphans = append(orphans, p)
		}
	}
	if len(orphans) != 1 || !strings.Contains(orphans[0], "fixture/internal/orphan ") {
		t.Fatalf("orphan reports %q, want one naming fixture/internal/orphan", orphans)
	}
}

// TestRepoImportGraph runs the import audit over the repository
// itself, as CI does.
func TestRepoImportGraph(t *testing.T) {
	problems, err := auditImports("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("import audit:\n%s", strings.Join(problems, "\n"))
	}
}
