package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// The prose rules. Documentation is code too, so two of its conventions
// are checked rather than kept by hand:
//
//   - an "item N" citation in ARCHITECTURE.md, TESTING.md or CHANGES.md
//     names a numbered open item of ROADMAP.md, so a citation cannot
//     outlive the item it points at;
//   - a CHANGES.md entry of PR 30 or later wraps to at most maxEntryLines
//     lines of entryWidth columns.

const (
	entryWidth     = 80
	maxEntryLines  = 15
	firstCappedPR  = 30
	roadmapFile    = "ROADMAP.md"
	changesFile    = "CHANGES.md"
	openItemsTitle = "## Open items"
)

var (
	// itemRE is a ROADMAP citation: "item 13", "Item 9(g)". Code spans are
	// removed before matching, so an error text such as `batch item 0` is
	// not one.
	itemRE     = regexp.MustCompile(`\b[Ii]tem (\d+)`)
	codeSpanRE = regexp.MustCompile("`[^`]*`")
	openItemRE = regexp.MustCompile(`^(\d+)\. `)
	entryRE    = regexp.MustCompile(`^- PR (\d+)`)
)

// proseFiles are the documents whose item citations must resolve.
var proseFiles = map[string]bool{"ARCHITECTURE.md": true, "TESTING.md": true, changesFile: true}

// RoadmapItems returns the numbers of ROADMAP.md's open items: the
// numbered list entries between the "## Open items" heading and the
// suggested order that closes the section.
func RoadmapItems(path string) (map[int]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	items := map[int]bool{}
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, openItemsTitle):
			in = true
		case strings.HasPrefix(line, "## "), strings.HasPrefix(line, "**Suggested order"):
			in = false
		case in:
			if m := openItemRE.FindStringSubmatch(line); m != nil {
				n, _ := strconv.Atoi(m[1])
				items[n] = true
			}
		}
	}
	return items, nil
}

// CheckProse applies the prose rules to path: item citations against
// items, when the file is one of proseFiles, and the entry cap when it is
// CHANGES.md.
func CheckProse(path string, items map[int]bool) ([]Problem, error) {
	name := filepath.Base(path)
	if !proseFiles[name] {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(string(data), "\n")

	// Citations are looked for outside fenced blocks and code spans; a span
	// may wrap onto the next line, so spans are cut from the whole text,
	// keeping their line breaks.
	plain := slices.Clone(lines)
	inFence := false
	for i, line := range plain {
		fence := strings.HasPrefix(strings.TrimSpace(line), "```")
		if fence || inFence {
			plain[i] = ""
		}
		inFence = inFence != fence
	}
	text := codeSpanRE.ReplaceAllStringFunc(strings.Join(plain, "\n"), func(span string) string {
		return strings.Repeat("\n", strings.Count(span, "\n"))
	})
	var problems []Problem
	for i, line := range strings.Split(text, "\n") {
		for _, m := range itemRE.FindAllStringSubmatch(line, -1) {
			if n, _ := strconv.Atoi(m[1]); !items[n] {
				problems = append(problems, Problem{File: path, Line: i + 1, What: "citation of no ROADMAP open item", Target: m[0]})
			}
		}
	}
	if name != changesFile {
		return problems, nil
	}

	// An entry is a "- PR N" line and the lines that continue it.
	entry, entryLine, entryLen := 0, 0, 0
	closeEntry := func() {
		if entry >= firstCappedPR && entryLen > maxEntryLines {
			problems = append(problems, Problem{File: path, Line: entryLine, What: "CHANGES entry too long",
				Target: fmt.Sprintf("PR %d wraps to %d lines of %d columns, the cap is %d", entry, entryLen, entryWidth, maxEntryLines)})
		}
	}
	for i, line := range lines {
		switch m := entryRE.FindStringSubmatch(line); {
		case m != nil:
			closeEntry()
			entry, _ = strconv.Atoi(m[1])
			entryLine, entryLen = i+1, wrappedLines(line, entryWidth)
		case strings.HasPrefix(line, "- ") || strings.TrimSpace(line) == "":
			closeEntry()
			entry = 0
		default:
			entryLen += wrappedLines(line, entryWidth)
		}
	}
	closeEntry()
	return problems, nil
}

// wrappedLines is how many lines a greedy word wrap at width columns
// breaks s into; a word longer than the width takes a line of its own.
func wrappedLines(s string, width int) int {
	lines, col := 0, 0
	for _, w := range strings.Fields(s) {
		n := len([]rune(w))
		switch {
		case col == 0:
			lines, col = lines+1, n
		case col+1+n <= width:
			col += 1 + n
		default:
			lines, col = lines+1, n
		}
	}
	return lines
}
