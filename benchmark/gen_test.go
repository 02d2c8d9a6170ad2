package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// readMultiset counts the (kind, source) reads and the batch sources of a
// phase, whatever their order and grouping.
func readMultiset(perClient [][]op) map[[2]int32]int {
	m := map[[2]int32]int{}
	for _, seq := range perClient {
		for _, o := range seq {
			if o.kind == opBatch {
				for _, s := range o.sources {
					m[[2]int32{int32(opBatch), s}]++
				}
				continue
			}
			m[[2]int32{int32(o.kind), o.q}]++
		}
	}
	return m
}

func TestServeTrafficIsAFunctionOfTheSeed(t *testing.T) {
	a := genServeTraffic(5000, 2, 20, 60, 200, 1, 7)
	b := genServeTraffic(5000, 2, 20, 60, 200, 1, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different op sequences")
	}
	other := genServeTraffic(5000, 2, 20, 60, 200, 1, 8)
	if !reflect.DeepEqual(a.cold, other.cold) {
		t.Error("the cold ops of set-up depend on the seed")
	}
	for c := range a.measured {
		if opDigest(a.measured[c]) == opDigest(other.measured[c]) || opDigest(a.warm[c]) == opDigest(other.warm[c]) {
			t.Fatalf("client %d: seeds 7 and 8 gave the same sequence", c)
		}
	}
	// Another seed asks the same questions in another order.
	if !reflect.DeepEqual(readMultiset(a.measured), readMultiset(other.measured)) {
		t.Error("seeds 7 and 8 measure different request populations")
	}
	if reflect.DeepEqual(readMultiset(a.warm), readMultiset(a.measured)) {
		t.Error("warm-up and measured phase ask exactly the same requests")
	}
	for c, seq := range a.measured {
		for j, o := range seq {
			if want := (j+1)%batchEvery == 0; (o.kind == opBatch) != want {
				t.Fatalf("client %d op %d: kind %v, batch expected: %t", c, j, o.kind, want)
			}
			if o.kind == opBatch && len(o.sources) != batchSize {
				t.Fatalf("client %d op %d: batch of %d sources", c, j, len(o.sources))
			}
		}
	}
}

func TestZipfDeckKeepsTheShapeAcrossSeeds(t *testing.T) {
	const n, count = 5000, 2000
	cdf := zipfCDF(n, zipfS)
	for seed := int64(1); seed <= 5; seed++ {
		deck := zipfDeck(cdf, count, rand.New(rand.NewSource(seed)))
		again := zipfDeck(cdf, count, rand.New(rand.NewSource(seed)))
		if !reflect.DeepEqual(deck, again) {
			t.Fatalf("seed %d: deck is not deterministic", seed)
		}
		freq := map[int32]int{}
		for _, r := range deck {
			if r < 0 || r >= n {
				t.Fatalf("rank %d out of range", r)
			}
			freq[r]++
		}
		// Stratified draws: a popular rank is within two draws (one per
		// edge of its CDF interval) of its expected count whatever the seed.
		for r := 0; r < 5; r++ {
			p := cdf[r]
			if r > 0 {
				p -= cdf[r-1]
			}
			if want := p * count; float64(freq[int32(r)]) < want-2 || float64(freq[int32(r)]) > want+2 {
				t.Errorf("seed %d: rank %d drawn %d times, expected %.1f±2", seed, r, freq[int32(r)], want)
			}
		}
	}
	kinds := kindDeck(1000, rand.New(rand.NewSource(3)))
	counts := map[opKind]int{}
	for _, k := range kinds {
		counts[k]++
	}
	if counts[opSingleSource] != 500 || counts[opTopK] != 400 || counts[opTopKRerank] != 100 {
		t.Errorf("kind mix %v, want 500/400/100", counts)
	}
}

func ringEdges(n int) [][2]int32 {
	edges := make([][2]int32, 0, 2*n)
	for u := 0; u < n; u++ {
		edges = append(edges, [2]int32{int32(u), int32((u + 1) % n)}, [2]int32{int32(u), int32((u + 7) % n)})
	}
	return edges
}

func TestEditBatchesAreEffectiveWhenApplied(t *testing.T) {
	const n = 300
	gen := func(seed int64) ([]op, *edgeModel) {
		m := newEdgeModel(n, ringEdges(n))
		return genMappedOps(m, 40, rand.New(rand.NewSource(seed))), m
	}
	ops, model := gen(11)
	again, _ := gen(11)
	if !reflect.DeepEqual(ops, again) {
		t.Fatal("same seed gave different mapped-edits sequences")
	}
	if other, _ := gen(12); opDigest(ops) == opDigest(other) {
		t.Fatal("seeds 11 and 12 gave the same sequence")
	}

	present := map[[2]int32]bool{}
	for _, e := range ringEdges(n) {
		present[e] = true
	}
	batches := 0
	for i, o := range ops {
		if (i+1)%(readsRound+1) != 0 {
			if o.second() || int(o.q) >= n {
				t.Fatalf("op %d: want a read in range, got %+v", i, o)
			}
			continue
		}
		batches++
		if len(o.edits) != editAdds+editRemove {
			t.Fatalf("op %d: %d edits", i, len(o.edits))
		}
		seen := map[[2]int32]bool{}
		for _, e := range o.edits {
			key := [2]int32{e.u, e.v}
			if seen[key] {
				t.Fatalf("op %d: pair %v twice in one batch", i, key)
			}
			seen[key] = true
			if e.remove && !present[key] {
				t.Fatalf("op %d: removes absent edge %v", i, key)
			}
			if !e.remove && (present[key] || e.u == e.v) {
				t.Fatalf("op %d: adds present edge or self-loop %v", i, key)
			}
		}
		for _, e := range o.edits {
			present[[2]int32{e.u, e.v}] = !e.remove
		}
	}
	if batches != 40 {
		t.Fatalf("%d edit batches, want 40", batches)
	}
	final := map[[2]int32]bool{}
	for _, e := range model.list {
		final[e] = true
	}
	for e, ok := range present {
		if ok != final[e] {
			t.Fatalf("model and replay disagree on edge %v", e)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{20: 0.75, 40: 0.75, 100: 0.90, 120: 0.90, 999: 0.90, 1000: 0.99, 2660: 0.99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

// The adapter promise: api.go alone imports the repository's packages.
func TestOnlyAdapterImportsRepo(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if strings.HasPrefix(imp.Path.Value, `"oipsr/`) && name != "api.go" {
				t.Errorf("%s imports %s; calls into the repository belong in api.go", name, imp.Path.Value)
			}
		}
	}
}

// BENCHMARK.json and the tables in main.go must say the same thing.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", spec.RunSeconds, defaultSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in main.go", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, main.go %q", i, w.Name, workloads[i].name)
		}
		if !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q breaks the naming limits", w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in main.go", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, main.go %+v", kind, i, m, d)
			}
			if !name.MatchString(m.Name) {
				t.Errorf("%s: name %q breaks the naming limits", kind, m.Name)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.Bound) {
				t.Errorf("%s %s: bound mismatch", kind, m.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}
