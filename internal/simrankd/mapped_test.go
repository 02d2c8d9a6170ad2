package simrankd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"oipsr/graph/gen"
	"oipsr/simrank/query"
	"oipsr/simrank/shard"
)

// TestMappedServesBitIdenticalResponses: a server over an index opened with
// LoadFileMapped must answer every endpoint with bodies byte-identical to
// a server over the same file loaded read-only — before and after a live
// POST /v1/edges batch, which for the mapped index also rewrites the
// file.
func TestMappedServesBitIdenticalResponses(t *testing.T) {
	g := gen.WebGraph(150, 8, 101)
	built, err := query.BuildIndex(g, query.Options{Walks: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "walks.v2.idx")
	if err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	dense, err := query.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dense.AttachGraph(g); err != nil {
		t.Fatal(err)
	}
	mapped, err := query.LoadFileMapped(path, query.MappedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if err := mapped.AttachGraph(g); err != nil {
		t.Fatal(err)
	}

	tsDense := httptest.NewServer(newServer(dense, 0, 1))
	defer tsDense.Close()
	tsMapped := httptest.NewServer(newServer(mapped, 0, 1))
	defer tsMapped.Close()

	queryPaths := []string{
		"/v1/topk?q=3&k=10",
		"/v1/topk?q=77&k=5&rerank=1",
		"/v1/single_source?q=42",
		"/v1/single_source?q=8&min=0.01",
	}
	compare := func(stage string) {
		t.Helper()
		for _, p := range queryPaths {
			codeD, bodyD := get(t, tsDense.URL+p)
			codeM, bodyM := get(t, tsMapped.URL+p)
			if codeD != http.StatusOK || codeM != http.StatusOK {
				t.Fatalf("%s %s: status %d / %d", stage, p, codeD, codeM)
			}
			if string(bodyD) != string(bodyM) {
				t.Fatalf("%s %s: dense and mapped responses differ:\n%s\n%s", stage, p, bodyD, bodyM)
			}
		}
		codeD, bodyD := postJSON(t, tsDense.URL+"/v1/batch", `{"sources":[1,5,120],"k":6}`)
		codeM, bodyM := postJSON(t, tsMapped.URL+"/v1/batch", `{"sources":[1,5,120],"k":6}`)
		if codeD != http.StatusOK || codeM != http.StatusOK {
			t.Fatalf("%s /v1/batch: status %d / %d", stage, codeD, codeM)
		}
		if string(bodyD) != string(bodyM) {
			t.Fatalf("%s /v1/batch: responses differ:\n%s\n%s", stage, bodyD, bodyM)
		}
		codeD, bodyD = postJSON(t, tsDense.URL+"/v1/join", `{"threshold":0.05,"k":10}`)
		codeM, bodyM = postJSON(t, tsMapped.URL+"/v1/join", `{"threshold":0.05,"k":10}`)
		if codeD != http.StatusOK || codeM != http.StatusOK {
			t.Fatalf("%s /v1/join: status %d / %d", stage, codeD, codeM)
		}
		if string(bodyD) != string(bodyM) {
			t.Fatalf("%s /v1/join: responses differ:\n%s\n%s", stage, bodyD, bodyM)
		}
	}
	compare("pre-edit")

	body, _ := testEditBatch(t, g)
	codeD, respD := postJSON(t, tsDense.URL+"/v1/edges", body)
	codeM, respM := postJSON(t, tsMapped.URL+"/v1/edges", body)
	if codeD != http.StatusOK || codeM != http.StatusOK {
		t.Fatalf("/v1/edges: status %d (%s) / %d (%s)", codeD, respD, codeM, respM)
	}
	// The edges response embeds wall-clock timing; compare everything else.
	var editD, editM map[string]any
	if err := json.Unmarshal(respD, &editD); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(respM, &editM); err != nil {
		t.Fatal(err)
	}
	delete(editD, "update_micros")
	delete(editM, "update_micros")
	jd, _ := json.Marshal(editD)
	jm, _ := json.Marshal(editM)
	if string(jd) != string(jm) {
		t.Fatalf("/v1/edges: dense and mapped responses differ:\n%s\n%s", respD, respM)
	}
	compare("post-edit")

	// The edit batch is durable beside the file: a fresh load of the file
	// and its edit log must agree with the live mapped server.
	reloaded, err := query.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := reloaded.AttachGraph(dense.Graph()); err != nil {
		t.Fatal(err)
	}
	tsReloaded := httptest.NewServer(newServer(reloaded, 0, 1))
	defer tsReloaded.Close()
	for _, p := range queryPaths {
		_, bodyM := get(t, tsMapped.URL+p)
		_, bodyR := get(t, tsReloaded.URL+p)
		if string(bodyM) != string(bodyR) {
			t.Fatalf("reload %s: edited file does not reproduce the live mapped answers:\n%s\n%s", p, bodyM, bodyR)
		}
	}

	var hz struct {
		Backend     string `json:"backend"`
		ForestBytes int64  `json:"index_forest_bytes"`
	}
	_, hzBody := get(t, tsMapped.URL+"/healthz")
	if err := json.Unmarshal(hzBody, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Backend != mapped.Backend() {
		t.Fatalf("healthz backend = %q, want %q", hz.Backend, mapped.Backend())
	}
	if hz.ForestBytes == 0 || hz.ForestBytes != dense.ForestBytes() {
		t.Fatalf("healthz index_forest_bytes = %d on a mapped index, %d on the read-only one", hz.ForestBytes, dense.ForestBytes())
	}
}

// TestVisitBytesReported: the visit index is gone, so no endpoint
// reports index_visit_bytes any more; what survives is /healthz
// index_bytes and /metrics simrankd_index_bytes, which are the handle's
// Bytes before and after an edit batch (which moves it through the walks
// it repaired). Serve mode over a dense and over a mapped (write-back)
// index, shard mode over a shard, which is always built from the graph.
func TestVisitBytesReported(t *testing.T) {
	g := gen.WebGraph(90, 5, 3)
	opt := query.Options{Walks: 20, Seed: 1, Workers: 1}
	dir := t.TempDir()
	built, err := query.BuildIndex(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.SaveFile(filepath.Join(dir, "walks.idx")); err != nil {
		t.Fatal(err)
	}
	mapped, err := query.LoadFileMapped(filepath.Join(dir, "walks.idx"), query.MappedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if err := mapped.AttachGraph(g); err != nil {
		t.Fatal(err)
	}
	denseShard, err := shard.Build(g, opt, 30, 90)
	if err != nil {
		t.Fatal(err)
	}
	shardServer := func(sh *shard.Shard) http.Handler {
		ss, err := NewShardServer(sh, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}

	for name, c := range map[string]struct {
		h   http.Handler
		idx *query.Index
	}{
		"serve-dense":  {NewServer(built, Config{Workers: 1}), built},
		"serve-mapped": {NewServer(mapped, Config{Workers: 1}), mapped},
		"shard-dense":  {shardServer(denseShard), denseShard.Index},
	} {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(c.h)
			defer ts.Close()
			read := func() int64 {
				var hz map[string]any
				_, body := get(t, ts.URL+"/healthz")
				if err := json.Unmarshal(body, &hz); err != nil {
					t.Fatal(err)
				}
				if _, ok := hz["index_visit_bytes"]; ok {
					t.Fatalf("healthz still reports update state: %s", body)
				}
				index, ok := hz["index_bytes"].(float64)
				if !ok {
					t.Fatalf("healthz without index_bytes: %s", body)
				}
				_, metrics := get(t, ts.URL+"/metrics")
				if line := fmt.Sprintf("simrankd_index_bytes %d\n", int64(index)); !strings.Contains(string(metrics), line) {
					t.Fatalf("metrics disagree with healthz, want %q:\n%s", line, metrics)
				}
				return int64(index)
			}
			if got := read(); got != c.idx.Bytes() {
				t.Fatalf("index_bytes = %d before any edit, the index holds %d", got, c.idx.Bytes())
			}
			if code, body := postJSON(t, ts.URL+"/v1/edges", `{"edits":[{"op":"add","u":2,"v":80},{"op":"add","u":70,"v":3}]}`); code != http.StatusOK {
				t.Fatalf("edges: %d %s", code, body)
			}
			if got := read(); got != c.idx.Bytes() {
				t.Fatalf("index_bytes = %d after the batch, the index holds %d", got, c.idx.Bytes())
			}
		})
	}
}
