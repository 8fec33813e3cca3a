package extmesh

import (
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// referenceDocs are the documents that describe the repository as it
// is, the build-and-run recipe in the verify skill included; CHANGES.md
// and ROADMAP.md are history and plans, free to name code that is gone
// or not yet written.
var referenceDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	// docPath matches a repository path such as internal/serve,
	// cmd/meshsim or internal/serve/query.go, optionally spelled as a
	// ./ relative path or an import path. A trailing .Symbol
	// (internal/sim.Arena) is not part of the match.
	docPath = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./-])(?:\./|extmesh/)?((?:cmd|internal|examples)/[A-Za-z0-9_/-]*(?:\.go)?)`)
	// inlineMake matches `make a b` in a code span or "(make a)".
	inlineMake = regexp.MustCompile("[`(]make((?: [a-z][a-z0-9-]*)+)")
	// blockMake matches a make command line inside a fenced block.
	blockMake = regexp.MustCompile(`^\s*(?:\$ )?make((?: [a-z][a-z0-9-]*)+)`)
	// makeTarget matches a rule line of the Makefile.
	makeTarget = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):(?:[^=]|$)`)
)

// docRefs returns the repository paths and make targets a Markdown
// document names, each mapped to the first line that names it.
func docRefs(doc string) (paths, targets map[string]int) {
	paths, targets = map[string]int{}, map[string]int{}
	note := func(m map[string]int, k string, line int) {
		if _, ok := m[k]; !ok {
			m[k] = line
		}
	}
	fenced := false
	for i, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		for _, m := range docPath.FindAllStringSubmatch(line, -1) {
			note(paths, strings.TrimSuffix(m[1], "/"), i+1)
		}
		makes := inlineMake.FindAllStringSubmatch(line, -1)
		if fenced {
			makes = append(makes, blockMake.FindAllStringSubmatch(line, -1)...)
		}
		for _, m := range makes {
			for _, t := range strings.Fields(m[1]) {
				note(targets, t, i+1)
			}
		}
	}
	return paths, targets
}

// TestDocsNameExistingCode fails when a reference document names a
// cmd/, internal/ or examples/ path that does not exist or a make
// target the Makefile lacks, so deleting code cannot leave the docs
// pointing at it.
func TestDocsNameExistingCode(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(string(mk), -1) {
		have[m[1]] = true
	}
	for _, name := range referenceDocs {
		doc, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range staleRefs(string(doc), have) {
			t.Errorf("%s:%s", name, e)
		}
	}
}

// staleRefs lists the references of doc that name a missing path or a
// make target absent from have.
func staleRefs(doc string, have map[string]bool) []string {
	paths, targets := docRefs(doc)
	var stale []string
	for p, line := range paths {
		if _, err := os.Stat(p); err != nil {
			stale = append(stale, fmt.Sprintf("%d: names %s, which does not exist", line, p))
		}
	}
	for tg, line := range targets {
		if !have[tg] {
			stale = append(stale, fmt.Sprintf("%d: names `make %s`, which the Makefile lacks", line, tg))
		}
	}
	sort.Strings(stale)
	return stale
}

// TestDocRefsCatchStaleNames seeds stale references of each kind and
// requires staleRefs to report every one and nothing else.
func TestDocRefsCatchStaleNames(t *testing.T) {
	doc := strings.Join([]string{
		"The router lives in `internal/route` and internal/sim.Arena reloads faults;",
		"`cmd/meshgone` and extmesh/internal/gone were deleted, as was",
		"examples/gone/main.go. Run `make test vet` (make nosuch) or `go run ./cmd/meshrun`.",
		"```sh",
		"make verify gone-too",
		"```",
		"Outside a code block, make sure prose is not read as a target.",
	}, "\n")
	got := staleRefs(doc, map[string]bool{"test": true, "vet": true, "verify": true})
	want := []string{"cmd/meshgone", "internal/gone", "examples/gone/main.go", "cmd/meshrun", "`make nosuch`", "`make gone-too`"}
	if len(got) != len(want) {
		t.Fatalf("staleRefs = %q, want one entry for each of %q", got, want)
	}
	for _, w := range want {
		found := false
		for _, g := range got {
			found = found || strings.Contains(g, " "+w+",")
		}
		if !found {
			t.Errorf("staleRefs missed %s: %q", w, got)
		}
	}
}
