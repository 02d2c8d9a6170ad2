package main

import (
	"os"
	"regexp"
	"testing"
)

// Every workload, traced, at 1/20 size: all seven end-to-end metrics under
// their contract names, no failed op, every check passed, and no per-layer
// metric that BENCHMARK.json does not declare.
func TestQuickWorkloads(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.Name] = true
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			c := config{workload: w.name, seed: 3, seconds: defaultSeconds, trace: true, quick: true}
			if err := c.resolve(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			res, err := w.run(c)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%d of %d ops failed: %v", res.failed, res.attempted, res.info)
			}
			if len(res.e2e) != len(endToEnd) {
				t.Errorf("%d end-to-end metrics, want %d", len(res.e2e), len(endToEnd))
			}
			for _, d := range endToEnd {
				v, ok := res.e2e[d.Name]
				if !ok || !name.MatchString(d.Name) || !(v > 0) {
					t.Errorf("end-to-end metric %q: present=%t value=%v", d.Name, ok, v)
				}
			}
			for k := range res.layer {
				if !declared[k] {
					t.Errorf("per-layer metric %q is not declared in main.go", k)
				}
			}
			if res.layer["trace.overhead_ratio"] <= 0 {
				t.Error("traced run reported no trace.overhead_ratio")
			}
			if fi, err := os.Stat(spanFile(c)); err != nil || fi.Size() == 0 {
				t.Errorf("span file %s: %v", spanFile(c), err)
			}
		})
	}
}
