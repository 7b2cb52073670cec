// Command landlord-lint statically audits metric registrations and the
// internal import graph:
//
//	landlord-lint [-root dir]
//
// It parses every non-test Go file under the root and collects each
// Counter/Gauge/GaugeFunc/Histogram registration whose name and help
// arguments resolve to string constants — literals, file-level consts,
// or function-local consts (the repo's `const name = ...` idiom).
// Registering the same metric name with two different kinds, or the
// same name with two different help strings, is reported and the
// process exits non-zero. Registering the same (name, kind, help)
// from several sites is fine: those are label variants of one family.
//
// This is the scrape-time failure class the registry itself can only
// catch at runtime (and only on paths that actually execute): a
// conflicting family renders /metrics output that Prometheus rejects.
//
// The import audit reads the non-test imports of every package under
// root (parser.ImportsOnly; build tags are ignored, so a file's imports
// count whatever its constraint) and fails when an internal/* package
// is reachable from no cmd/* main — code no command can run — or when
// cmd/landlordd links a set of internal packages other than
// landlorddLinks. CI runs both audits on every build via
// `make lint-metrics`.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// metricMethods are the registry constructors whose first two
// arguments are (name, help).
var metricMethods = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"GaugeFunc": true,
	"Histogram": true,
}

// metricName is the Prometheus metric-name grammar; unresolvable or
// non-conforming first arguments are skipped rather than guessed at.
var metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// landlorddLinks is the set of internal packages the serving daemon
// links. A package joining or leaving it changes what every node runs;
// such a change is made here too, on purpose.
var landlorddLinks = map[string]bool{
	"internal/config": true, "internal/core": true, "internal/fleet": true,
	"internal/persist": true, "internal/pkggraph": true, "internal/resilience": true,
	"internal/server": true, "internal/similarity": true, "internal/spec": true,
	"internal/stats": true, "internal/telemetry": true,
}

// registration is one resolved call site.
type registration struct {
	name string
	kind string
	help string
	pos  token.Position
}

func main() {
	root := flag.String("root", ".", "directory tree to scan")
	flag.Parse()
	regs, err := scanTree(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "landlord-lint:", err)
		os.Exit(1)
	}
	problems := findConflicts(regs)
	graph, err := auditImports(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "landlord-lint:", err)
		os.Exit(1)
	}
	problems = append(problems, graph...)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
	names := map[string]bool{}
	for _, r := range regs {
		names[r.name] = true
	}
	fmt.Printf("landlord-lint: %d metric registration(s), %d family(ies), no conflicts; every internal package reachable from cmd/*, landlordd links %d\n",
		len(regs), len(names), len(landlorddLinks))
}

// auditImports checks the import graph of the module at root: every
// internal/* package must be reachable from a cmd/* main, and
// cmd/landlordd must link exactly landlorddLinks.
func auditImports(root string) ([]string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var module string
	for _, line := range strings.Split(string(mod), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.TrimSpace(m)
		}
	}
	dirs, err := goFiles(root)
	if err != nil {
		return nil, err
	}
	// imports maps each package, as a slash path relative to root, to
	// the module's packages its files import.
	imports := map[string][]string{}
	var mains []string
	for dir, files := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		rel = filepath.ToSlash(rel)
		imports[rel] = nil
		for _, file := range files {
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %w", file, err)
			}
			if f.Name.Name == "main" && path.Dir(rel) == "cmd" {
				mains = append(mains, rel)
			}
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if dep, ok := strings.CutPrefix(p, module+"/"); ok {
					imports[rel] = append(imports[rel], dep)
				}
			}
		}
	}
	reach := func(from ...string) map[string]bool {
		seen := map[string]bool{}
		for len(from) > 0 {
			p := from[len(from)-1]
			from = from[:len(from)-1]
			if !seen[p] {
				seen[p] = true
				from = append(from, imports[p]...)
			}
		}
		return seen
	}
	reached, daemon := reach(mains...), reach("cmd/landlordd")
	var out []string
	for p := range imports {
		if strings.HasPrefix(p, "internal/") && !reached[p] {
			out = append(out, fmt.Sprintf("%s: package %s/%s is reachable from no cmd/* main", filepath.Join(root, p), module, p))
		}
	}
	for p := range daemon {
		if strings.HasPrefix(p, "internal/") && !landlorddLinks[p] {
			out = append(out, fmt.Sprintf("cmd/landlordd links %s/%s, which landlorddLinks lacks", module, p))
		}
	}
	for p := range landlorddLinks {
		if !daemon[p] {
			out = append(out, fmt.Sprintf("cmd/landlordd does not link %s/%s, which landlorddLinks names", module, p))
		}
	}
	sort.Strings(out)
	return out, nil
}

// findConflicts groups registrations by name and reports any family
// registered under more than one kind or help string.
func findConflicts(regs []registration) []string {
	byName := map[string][]registration{}
	for _, r := range regs {
		byName[r.name] = append(byName[r.name], r)
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []string
	for _, name := range names {
		group := byName[name]
		for _, r := range group[1:] {
			if r.kind != group[0].kind {
				out = append(out, fmt.Sprintf(
					"%s: metric %q registered as %s, but %s registered it as %s",
					r.pos, name, r.kind, group[0].pos, group[0].kind))
			} else if r.help != group[0].help {
				out = append(out, fmt.Sprintf(
					"%s: metric %q help %q conflicts with %q at %s",
					r.pos, name, r.help, group[0].help, group[0].pos))
			}
		}
	}
	return out
}

// scanTree walks root, parsing each package directory's non-test
// files together so file-level consts resolve across the package.
func scanTree(root string) ([]registration, error) {
	dirs, err := goFiles(root)
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(dirs))
	for dir := range dirs {
		paths = append(paths, dir)
	}
	sort.Strings(paths)
	var regs []registration
	for _, dir := range paths {
		sort.Strings(dirs[dir])
		r, err := scanPackage(dirs[dir])
		if err != nil {
			return nil, err
		}
		regs = append(regs, r...)
	}
	return regs, nil
}

// goFiles maps each directory under root to its non-test Go files,
// skipping testdata and dot directories.
func goFiles(root string) (map[string][]string, error) {
	dirs := map[string][]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			dirs[dir] = append(dirs[dir], path)
		}
		return nil
	})
	return dirs, err
}

// scanPackage parses the files of one package and extracts resolved
// registrations.
func scanPackage(files []string) ([]registration, error) {
	fset := token.NewFileSet()
	parsed := make([]*ast.File, 0, len(files))
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		parsed = append(parsed, f)
	}
	// Package-level string consts are visible from every file.
	pkgConsts := map[string]string{}
	for _, f := range parsed {
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.CONST {
				collectConsts(gd, pkgConsts, nil)
			}
		}
	}
	var regs []registration
	for _, f := range parsed {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Function-local consts shadow package ones.
			local := map[string]string{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if gd, ok := n.(*ast.GenDecl); ok && gd.Tok == token.CONST {
					collectConsts(gd, local, pkgConsts)
				}
				return true
			})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !metricMethods[sel.Sel.Name] || len(call.Args) < 2 {
					return true
				}
				name, ok1 := resolveString(call.Args[0], local, pkgConsts)
				help, ok2 := resolveString(call.Args[1], local, pkgConsts)
				if !ok1 || !ok2 || !metricName.MatchString(name) {
					return true
				}
				regs = append(regs, registration{
					name: name, kind: sel.Sel.Name, help: help,
					pos: fset.Position(call.Pos()),
				})
				return true
			})
		}
	}
	return regs, nil
}

// collectConsts records single-name string const specs into dst,
// resolving initializer expressions against fallback scopes.
func collectConsts(gd *ast.GenDecl, dst map[string]string, outer map[string]string) {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Names) != len(vs.Values) {
			continue
		}
		for i, ident := range vs.Names {
			if v, ok := resolveString(vs.Values[i], dst, outer); ok {
				dst[ident.Name] = v
			}
		}
	}
}

// resolveString evaluates e as a constant string: a literal, an
// identifier bound in one of the scopes (innermost first), or a
// concatenation of resolvable parts.
func resolveString(e ast.Expr, scopes ...map[string]string) (string, bool) {
	switch v := e.(type) {
	case *ast.BasicLit:
		if v.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(v.Value)
		return s, err == nil
	case *ast.Ident:
		for _, scope := range scopes {
			if scope == nil {
				continue
			}
			if s, ok := scope[v.Name]; ok {
				return s, true
			}
		}
		return "", false
	case *ast.BinaryExpr:
		if v.Op != token.ADD {
			return "", false
		}
		l, ok1 := resolveString(v.X, scopes...)
		r, ok2 := resolveString(v.Y, scopes...)
		return l + r, ok1 && ok2
	case *ast.ParenExpr:
		return resolveString(v.X, scopes...)
	}
	return "", false
}
