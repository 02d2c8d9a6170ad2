// Command mdcheck is the repository's markdown checker: it verifies that
// every relative link in the given markdown files points at a file or
// directory that actually exists, so documentation cannot silently rot as
// the tree moves underneath it. CI runs it over README.md, ARCHITECTURE.md,
// TESTING.md, CHANGES.md, docs/API.md, ROADMAP.md,
// .claude/skills/verify/SKILL.md and benchmark/README.md in the docs
// hygiene job.
//
//	mdcheck README.md ARCHITECTURE.md CHANGES.md docs/API.md
//
// It also applies the prose rules (prose.go) to ARCHITECTURE.md, TESTING.md
// and CHANGES.md: every "item N" names an open item of the ROADMAP.md
// beside the file, and a CHANGES.md entry from PR 30 on wraps to at most
// 15 lines of 80 columns.
//
// External links (http, https, mailto) and pure intra-document anchors
// (#section) are skipped — mdcheck is offline and checks the tree, not the
// web. A relative link's fragment is ignored; the target path is resolved
// against the markdown file's own directory. Exit status 1 reports one
// line per broken link.
package main

import (
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: mdcheck FILE.md [FILE.md ...]")
		os.Exit(2)
	}
	broken := 0
	for _, path := range os.Args[1:] {
		problems, err := CheckFile(path)
		if err == nil && proseFiles[filepath.Base(path)] {
			var items map[int]bool
			if items, err = RoadmapItems(filepath.Join(filepath.Dir(path), roadmapFile)); err == nil {
				var prose []Problem
				prose, err = CheckProse(path, items)
				problems = append(problems, prose...)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdcheck: %v\n", err)
			os.Exit(2)
		}
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "%s\n", p)
			broken++
		}
	}
	if broken > 0 {
		fmt.Fprintf(os.Stderr, "mdcheck: %d problem(s)\n", broken)
		os.Exit(1)
	}
}
