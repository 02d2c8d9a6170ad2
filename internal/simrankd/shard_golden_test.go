package simrankd

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/simrank/query"
	"oipsr/simrank/shard"
)

// goldenShardOrdinal is the shard the shard goldens serve: the middle one
// of the 3-way split of the golden graph.
const goldenShardOrdinal = 1

// goldenOpenShard builds a 3-shard directory of g and opens its middle
// shard from the manifest, read-only or writing edits back to its file
// (demand-paged at d366a63), no graph attached. The
// two shard calls are the only lines of this file that do not compile at
// d366a63, where they read shard.BuildAll(g, opt, dir, 3) and, when mapped,
// shard.OpenShardMapped(dir, m, goldenShardOrdinal, query.MappedOptions{})
// — see testdata/parent/README.md.
func goldenOpenShard(t *testing.T, g *graph.Graph, opt query.Options, mapped bool) *shard.Shard {
	t.Helper()
	dir := t.TempDir()
	m, err := shard.BuildAll(g, opt, dir, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := shard.OpenShard(dir, m, goldenShardOrdinal, mapped)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	return sh
}

// shardReads is what a router asks a shard — [20, 40) of 60 vertices — and
// every way of asking it wrong.
func shardReads() []goldenProbe {
	n := goldenN
	var wide strings.Builder
	wide.WriteString(`{"sources":[0`)
	for i := 0; i < maxDenseBatchScores/(n/3)+1; i++ {
		wide.WriteString(",0")
	}
	wide.WriteString(`]}`)
	p := func(name, method, path, body string) goldenProbe {
		return goldenProbe{name: name, method: method, path: path, body: body}
	}
	return []goldenProbe{
		p("healthz", "GET", "/healthz", ""),
		// scores: the binary leg, recorded as hex.
		p("scores_owned", "POST", "/shard/v1/scores", `{"sources":[22,27,39]}`),
		p("scores_foreign", "POST", "/shard/v1/scores", `{"sources":[1,13,43,59]}`),
		p("scores_mixed_dups", "POST", "/shard/v1/scores", `{"sources":[24,3,24,15,3]}`),
		p("scores_one", "POST", "/shard/v1/scores", `{"sources":[31]}`),
		p("scores_empty", "POST", "/shard/v1/scores", `{"sources":[]}`),
		p("scores_no_field", "POST", "/shard/v1/scores", `{}`),
		p("scores_oob", "POST", "/shard/v1/scores", fmt.Sprintf(`{"sources":[%d]}`, n)),
		p("scores_oob_second", "POST", "/shard/v1/scores", fmt.Sprintf(`{"sources":[21,%d]}`, n+40)),
		p("scores_neg", "POST", "/shard/v1/scores", `{"sources":[-1]}`),
		p("scores_too_many", "POST", "/shard/v1/scores", `{"sources":[1,2,3,4,5,6,7,8,9]}`),
		{name: "scores_too_wide", method: "POST", path: "/shard/v1/scores", body: wide.String(),
			before: func(sv *serving) { sv.maxBatch = maxDenseBatchScores },
			after:  func(sv *serving) { sv.maxBatch = goldenMaxBatch }},
		p("scores_bad_json", "POST", "/shard/v1/scores", `{"sources":`),
		p("scores_unknown_field", "POST", "/shard/v1/scores", `{"sources":[1],"bogus":1}`),
		p("scores_bad_timeout", "POST", "/shard/v1/scores?timeout_ms=abc", `{"sources":[1]}`),
		p("scores_method", "GET", "/shard/v1/scores", ""),
		// join candidates over fingerprint ranges.
		p("cand_all", "POST", "/shard/v1/join_candidates", `{"threshold":0.15,"fp_lo":0,"fp_hi":200,"max_candidates":100000}`),
		p("cand_middle", "POST", "/shard/v1/join_candidates", `{"threshold":0.15,"fp_lo":67,"fp_hi":134,"max_candidates":100000}`),
		p("cand_empty_range", "POST", "/shard/v1/join_candidates", `{"threshold":0.15,"fp_lo":50,"fp_hi":50,"max_candidates":100000}`),
		p("cand_zero_threshold", "POST", "/shard/v1/join_candidates", `{"threshold":0,"fp_lo":0,"fp_hi":3,"max_candidates":100000}`),
		p("cand_above_c", "POST", "/shard/v1/join_candidates", `{"threshold":0.95,"fp_lo":0,"fp_hi":200,"max_candidates":100000}`),
		p("cand_too_dense", "POST", "/shard/v1/join_candidates", `{"threshold":0.1,"fp_lo":0,"fp_hi":200,"max_candidates":2}`),
		p("cand_bad_fp", "POST", "/shard/v1/join_candidates", `{"threshold":0.15,"fp_lo":0,"fp_hi":201,"max_candidates":100000}`),
		p("cand_fp_reversed", "POST", "/shard/v1/join_candidates", `{"threshold":0.15,"fp_lo":9,"fp_hi":3,"max_candidates":100000}`),
		p("cand_no_cap", "POST", "/shard/v1/join_candidates", `{"threshold":0.15,"fp_lo":0,"fp_hi":200}`),
		p("cand_bad_json", "POST", "/shard/v1/join_candidates", `{"threshold":`),
		p("cand_method", "GET", "/shard/v1/join_candidates", ""),
		// pair scoring: owned, foreign and mixed pairs.
		p("score_pairs", "POST", "/shard/v1/join_score", `{"pairs":[[22,24],[21,39],[1,22],[13,27],[16,43],[0,59],[15,30],[4,5]]}`),
		p("score_empty", "POST", "/shard/v1/join_score", `{"pairs":[]}`),
		p("score_oob", "POST", "/shard/v1/join_score", fmt.Sprintf(`{"pairs":[[3,%d]]}`, n)),
		p("score_oob_first", "POST", "/shard/v1/join_score", fmt.Sprintf(`{"pairs":[[20,25],[%d,4]]}`, n+7)),
		p("score_neg", "POST", "/shard/v1/join_score", `{"pairs":[[20,25],[-3,4]]}`),
		p("score_bad_json", "POST", "/shard/v1/join_score", `[[1,2]]`),
		p("score_method", "PUT", "/shard/v1/join_score", ""),
		// edges: everything that must be refused without touching the graph.
		p("edges_bad_json", "POST", "/v1/edges", `not json`),
		p("edges_bad_op", "POST", "/v1/edges", `{"edits":[{"op":"frobnicate","u":0,"v":1}]}`),
		p("edges_oob", "POST", "/v1/edges", fmt.Sprintf(`{"edits":[{"op":"add","u":0,"v":%d}]}`, n)),
		p("edges_method", "GET", "/v1/edges", ""),
		// the public surface is not a shard's.
		p("no_v1_topk", "GET", "/v1/topk?q=21&k=3", ""),
	}
}

// shardErrorTexts are the /shard/v1/* error bodies that read differently
// from the parent's, by probe name: where shard.Shard and query.Index each
// had a message for one mistake, the one handle has one. Status and headers
// of these probes are still the parent's; every other record is compared
// byte for byte.
var shardErrorTexts = map[string]string{
	"scores_oob":        `{"error":"query: source 60 (batch item 0) out of range [0,60)"}`,
	"scores_oob_second": `{"error":"query: source 100 (batch item 1) out of range [0,60)"}`,
	"scores_neg":        `{"error":"query: source -1 (batch item 0) out of range [0,60)"}`,
	"score_oob":         `{"error":"query: pair (3,60) out of range [0,60)"}`,
	"score_oob_first":   `{"error":"query: pair (67,4) out of range [0,60)"}`,
}

// applyShardErrorTexts rewrites the parent's transcript into what this code
// must answer: the bodies named in shardErrorTexts replaced, each only if
// the parent's record is a 4xx with a JSON error body.
func applyShardErrorTexts(t *testing.T, want []byte) []byte {
	t.Helper()
	lines := strings.Split(string(want), "\n")
	for i := 0; i+2 < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "== ") {
			continue
		}
		name := strings.SplitN(strings.TrimPrefix(lines[i], "== "), ":", 2)[0]
		text, ok := shardErrorTexts[name[strings.IndexByte(name, '/')+1:]]
		if !ok {
			continue
		}
		if !strings.HasPrefix(lines[i+1], "-- 400 ") || !strings.HasPrefix(lines[i+2], `{"error":"`) {
			t.Fatalf("%s: the parent answered %q / %q, not a 400 with an error body", name, lines[i+1], lines[i+2])
		}
		lines[i+2] = text
	}
	return []byte(strings.Join(lines, "\n"))
}

// TestParentShardGoldens replays, against a ShardServer directly, what the
// router goldens only see through a merge: /healthz, the three
// /shard/v1/* endpoints and /v1/edges on the middle range of the 3-way
// split, before and after the golden edit batch, over a shard built in
// memory and over one opened demand-paged from a shard directory. The
// answers are d366a63's — the last commit where shard.Shard implemented
// them itself — byte for byte, shardErrorTexts excepted.
func TestParentShardGoldens(t *testing.T) {
	g := gen.WebGraph(goldenN, 5, 101)
	opt := query.Options{Walks: 200, Seed: 7, Workers: 1}
	cfg := Config{Workers: 1, MaxBatch: goldenMaxBatch}
	ranges, err := shard.Plan(goldenN, 3)
	if err != nil {
		t.Fatal(err)
	}
	rg := ranges[goldenShardOrdinal]

	var out bytes.Buffer
	for _, backend := range []string{"dense", "mapped"} {
		var sh *shard.Shard
		if backend == "dense" {
			if sh, err = shard.Build(g, opt, rg.Lo, rg.Hi); err != nil {
				t.Fatal(err)
			}
		} else {
			sh = goldenOpenShard(t, g, opt, true)
			if err := sh.AttachGraph(g); err != nil {
				t.Fatal(err)
			}
		}
		ss, err := NewShardServer(sh, cfg)
		if err != nil {
			t.Fatal(err)
		}
		transcribe(t, &out, ss, &ss.serving, backend+"-before", shardReads())
		transcribe(t, &out, ss, &ss.serving, backend+"-edit", goldenEdits)
		transcribe(t, &out, ss, &ss.serving, backend+"-after", shardReads())
	}

	// A shard nobody attached the graph to cannot be served at all.
	_, err = NewShardServer(goldenOpenShard(t, g, opt, false), cfg)
	fmt.Fprintf(&out, "== nograph/new_shard_server\n-- %v\n", err)

	checkGoldenAgainst(t, "shard.txt", maskMappedBacking(out.Bytes()), func(t *testing.T, want []byte) []byte {
		return maskMappedBacking(applyShardErrorTexts(t, want))
	})
}

// mappedBacking is what /healthz says about the storage of a shard opened
// with OpenShard(…, true). At d366a63 it paged its file: index_bytes was
// the file size, index_forest_bytes 0, backend "mapped". Its rows are
// resident now, with a coalescence order, and the backend is
// "write-back", so in the mapped-* records these three fields are masked
// on both sides; every other byte, the scores included, is compared.
var mappedBacking = regexp.MustCompile(`"index_bytes":\d+,"index_forest_bytes":\d+,"backend":"[a-z-]+"`)

// maskMappedBacking masks mappedBacking in the records of the mapped-*
// phases of a shard transcript.
func maskMappedBacking(b []byte) []byte {
	lines := bytes.Split(b, []byte("\n"))
	mapped := false
	for i, line := range lines {
		if bytes.HasPrefix(line, []byte("== ")) {
			mapped = bytes.HasPrefix(line, []byte("== mapped-"))
		} else if mapped {
			lines[i] = mappedBacking.ReplaceAll(line, []byte(`"index_bytes":*,"index_forest_bytes":*,"backend":*`))
		}
	}
	return bytes.Join(lines, []byte("\n"))
}
