package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestCheckFileClassifiesLinks: broken relative links are reported,
// everything unckeckable or valid is not.
func TestCheckFileClassifiesLinks(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "exists.md"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	doc := `# Doc
[ok](exists.md) [ok dir](sub) [ok anchor](exists.md#part) [pure anchor](#here)
[external](https://example.com/x.md) [mail](mailto:a@b.c)
[broken](missing.md) and [broken2](sub/nope.md "title")
` + "```\n[in fence](also-missing.md)\n```\n" + `
[ref]: missing-ref.md
`
	path := filepath.Join(dir, "doc.md")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	problems, err := CheckFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"missing.md": true, `sub/nope.md "title"`: true, "missing-ref.md": true}
	if len(problems) != len(want) {
		t.Fatalf("got %d problems %v, want %d", len(problems), problems, len(want))
	}
	for _, p := range problems {
		if !want[p.Target] {
			t.Errorf("unexpected problem: %v", p)
		}
	}
}

// TestRepositoryDocsHaveNoBrokenLinks runs the checker over the committed
// documentation — the same gate CI's docs job applies, kept in tier-1 so a
// doc rot is caught by a plain `go test ./...`.
func TestRepositoryDocsHaveNoBrokenLinks(t *testing.T) {
	root := filepath.Join("..", "..")
	docs := []string{"README.md", "ARCHITECTURE.md", "TESTING.md",
		filepath.Join("docs", "API.md")}
	for _, doc := range docs {
		path := filepath.Join(root, doc)
		problems, err := CheckFile(path)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, p := range problems {
			t.Errorf("%v", p)
		}
	}
}

// TestProseRules: the citation rule and the entry cap, one row per case.
func TestProseRules(t *testing.T) {
	roadmap := "# R\n\n## Open items\n\n1. **One.**\n   2. not an item, indented\n13. **Thirteen.**\n\n" +
		"**Suggested order.**\n4. **Item 4 is not open.**\n\n## Recent\n7. **Nor 7.**\n"
	long := "- PR 31: " + strings.Repeat("word ", 16*80/5)
	short := "- PR 31: " + strings.Repeat("word ", 14*80/5)
	for _, tc := range []struct {
		name, file, body string
		want             []string // the problems' targets
	}{
		{"open items resolve", "ARCHITECTURE.md", "see item 1 and Item 13(a)\n", nil},
		{"dangling item", "TESTING.md", "see item 2 and item 4\n", []string{"item 2", "item 4"}},
		{"section ends at the suggested order", "ARCHITECTURE.md", "item 7\n", []string{"item 7"}},
		{"code spans and fences are not citations", "TESTING.md", "`batch\nitem 0` and\n```\nitem 9\n```\n", nil},
		{"other files are not checked", "README.md", "item 99\n", nil},
		{"a long entry before PR 30 is history", "CHANGES.md", "- PR 29: " + strings.Repeat("word ", 400) + "\n", nil},
		{"a long entry", "CHANGES.md", long + "\n- PR 32: short\n", []string{"PR 31 wraps to 17 lines of 80 columns, the cap is 15"}},
		{"continuation lines count", "CHANGES.md", short + "\n" + short[9:] + "\n", []string{"PR 31 wraps to 29 lines of 80 columns, the cap is 15"}},
		{"an entry at the cap", "CHANGES.md", short + "\n", nil},
		{"an item in CHANGES", "CHANGES.md", "- PR 30: item 3\n", []string{"item 3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "ROADMAP.md"), []byte(roadmap), 0o644); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, tc.file)
			if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
				t.Fatal(err)
			}
			items, err := RoadmapItems(filepath.Join(dir, "ROADMAP.md"))
			if err != nil {
				t.Fatal(err)
			}
			problems, err := CheckProse(path, items)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, p := range problems {
				got = append(got, p.Target)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("problems %v, want %v", problems, tc.want)
			}
		})
	}
}

// TestRepositoryProse runs the prose rules over the committed documents,
// as CI's docs job does.
func TestRepositoryProse(t *testing.T) {
	root := filepath.Join("..", "..")
	items, err := RoadmapItems(filepath.Join(root, "ROADMAP.md"))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) == 0 {
		t.Fatal("ROADMAP.md lists no open items")
	}
	for _, doc := range []string{"ARCHITECTURE.md", "TESTING.md", "CHANGES.md"} {
		problems, err := CheckProse(filepath.Join(root, doc), items)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, p := range problems {
			t.Errorf("%v", p)
		}
	}
}
