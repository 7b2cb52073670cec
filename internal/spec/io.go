package spec

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/pkggraph"
)

// String renders the spec compactly for logs: up to eight keys followed
// by an ellipsis with the total count.
func (s Spec) String() string {
	return fmt.Sprintf("spec(%d packages, hash %016x)", len(s.ids), s.Hash())
}

// Parse reads a textual specification: one package key per line, with
// blank lines and lines starting with '#' ignored. Unknown keys are an
// error; a specification that cannot be satisfied from the repository
// must be rejected before it reaches the cache manager.
func Parse(r io.Reader, repo *pkggraph.Repo) (Spec, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var ids []pkggraph.PkgID
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		id, ok := repo.Lookup(text)
		if !ok {
			return Spec{}, fmt.Errorf("spec: line %d: unknown package %q", line, text)
		}
		ids = append(ids, id)
	}
	if err := sc.Err(); err != nil {
		return Spec{}, fmt.Errorf("spec: reading: %w", err)
	}
	return New(ids), nil
}

// ParseString is Parse over an in-memory string.
func ParseString(text string, repo *pkggraph.Repo) (Spec, error) {
	return Parse(strings.NewReader(text), repo)
}
