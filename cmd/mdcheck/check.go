package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRE matches inline markdown links [text](target) — including images —
// without crossing line boundaries. Reference-style definitions
// ("[label]: target") are matched by refRE. Neither regex tries to be a
// full CommonMark parser; they cover the constructs this repository's
// documentation uses, and CheckFile errs on the side of skipping what it
// cannot classify rather than failing the build on a false positive.
var (
	linkRE = regexp.MustCompile(`!?\[[^\]\n]*\]\(([^)\n]+)\)`)
	refRE  = regexp.MustCompile(`(?m)^\[[^\]\n]+\]:\s+(\S+)`)
)

// Problem describes one broken link or broken prose rule.
type Problem struct {
	File   string
	Line   int
	What   string // "broken link", or the prose rule broken
	Target string
}

func (p Problem) String() string {
	return fmt.Sprintf("%s:%d: %s %q", p.File, p.Line, p.What, p.Target)
}

// CheckFile parses path as markdown and returns one Problem per relative
// link whose target does not exist on disk. Targets are resolved against
// the file's directory; fragments are stripped; external schemes and pure
// anchors are skipped. Links inside fenced code blocks are ignored.
func CheckFile(path string) ([]Problem, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(path)
	var problems []Problem
	inFence := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		targets := []string{}
		for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
			targets = append(targets, m[1])
		}
		for _, m := range refRE.FindAllStringSubmatch(line, -1) {
			targets = append(targets, m[1])
		}
		for _, target := range targets {
			if t := relTarget(target); t != "" {
				if _, err := os.Stat(filepath.Join(dir, t)); err != nil {
					problems = append(problems, Problem{File: path, Line: i + 1, What: "broken link", Target: target})
				}
			}
		}
	}
	return problems, nil
}

// relTarget reduces a raw link target to the relative path to stat, or ""
// when the link is not checkable on disk (external scheme, pure anchor,
// absolute path, empty).
func relTarget(raw string) string {
	target := strings.TrimSpace(raw)
	// "[text](target "title")" — drop the optional title.
	if i := strings.IndexAny(target, " \t"); i >= 0 {
		target = target[:i]
	}
	target = strings.Trim(target, "<>")
	if target == "" || strings.HasPrefix(target, "#") || strings.HasPrefix(target, "/") {
		return ""
	}
	if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
		return ""
	}
	if i := strings.IndexByte(target, '#'); i >= 0 {
		target = target[:i]
	}
	return target
}
