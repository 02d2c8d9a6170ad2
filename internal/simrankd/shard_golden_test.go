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
		// join candidates over fingerprint ranges, at the parent; a 404
		// now (shardJoinGone).
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
		// pair scoring: owned, foreign and mixed pairs; a 404 now too.
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
}

// shardJoinGone amends every record of a probe on one of the parent's two
// join endpoints, /shard/v1/join_candidates and /shard/v1/join_score, to
// the mux's 404: the router runs the join over its own graph, and a shard
// serves no join.
func shardJoinGone() map[string]string {
	gone := make(map[string]string)
	for _, p := range shardReads() {
		if strings.HasPrefix(p.path, "/shard/v1/join_") {
			gone[p.name] = "-- 404 Content-Type=\"text/plain; charset=utf-8\"\n404 page not found"
		}
	}
	return gone
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
// /shard/v1/* endpoints of the parent and /v1/edges on the middle range of
// the 3-way split, before and after the golden edit batch, over a shard
// built in memory. The answers are d366a63's — the last commit where
// shard.Shard implemented them itself — byte for byte, shardErrorTexts and
// shardJoinGone excepted. The parent's replay of the same phases over a
// shard opened from a shard directory (mapped-*) is not run: shards no
// longer keep files, and dropMappedPhases checks that each of those
// records is its dense-* twin before it drops it.
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
	sh, err := shard.Build(g, opt, rg.Lo, rg.Hi)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewShardServer(sh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	transcribe(t, &out, ss, &ss.serving, "dense-before", shardReads())
	transcribe(t, &out, ss, &ss.serving, "dense-edit", goldenEdits)
	transcribe(t, &out, ss, &ss.serving, "dense-after", shardReads())

	// A shard nobody attached the graph to cannot be served at all.
	_, err = NewShardServer(noGraphShard(t, g, opt), cfg)
	fmt.Fprintf(&out, "== nograph/new_shard_server\n-- %v\n", err)

	checkGoldenAgainst(t, "shard.txt", out.Bytes(), func(t *testing.T, want []byte) []byte {
		return replaceRecords(t, applyShardErrorTexts(t, dropMappedPhases(t, want)), shardJoinGone())
	})
}

// noGraphShard is a shard with no graph attached: an index saved and
// loaded back by query.Load, which leaves the graph to AttachGraph.
func noGraphShard(t *testing.T, g *graph.Graph, opt query.Options) *shard.Shard {
	t.Helper()
	built, err := query.BuildIndex(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ix, err := query.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return &shard.Shard{Index: ix}
}

// mappedBacking is what /healthz says about the storage of a shard opened
// mapped from a shard directory: at d366a63 it paged its file
// (index_bytes the file size, index_forest_bytes 0, backend "mapped"),
// where the dense-* twin of the record reports its resident rows — with
// index_bytes already dropped by checkGoldenAgainst (dropDenseBytes).
var mappedBacking = regexp.MustCompile(`("index_bytes":\d+,)?"index_forest_bytes":\d+,"backend":"[a-z-]+"`)

// dropMappedPhases removes the records of the mapped-* phases from the
// parent's shard transcript, after checking that each is its dense-* twin
// — status, headers and body, scores included — once mappedBacking is
// masked in both.
func dropMappedPhases(t *testing.T, want []byte) []byte {
	t.Helper()
	mask := func(s string) string {
		return mappedBacking.ReplaceAllString(s, `"index_bytes":*,"index_forest_bytes":*,"backend":*`)
	}
	lines := strings.Split(string(want), "\n")
	var kept []string
	records, twins := map[string]string{}, map[string]string{}
	for i := 0; i < len(lines); i++ {
		name, isHeader := strings.CutPrefix(lines[i], "== ")
		if !isHeader || !strings.HasPrefix(name, "mapped-") {
			kept = append(kept, lines[i])
			if isHeader && strings.HasPrefix(name, "dense-") {
				records[strings.TrimPrefix(name, "dense-")] = mask(recordText(t, want, strings.SplitN(name, ":", 2)[0]))
			}
			continue
		}
		twins[strings.TrimPrefix(name, "mapped-")] = mask(recordText(t, want, strings.SplitN(name, ":", 2)[0]))
		for i+1 < len(lines) && !strings.HasPrefix(lines[i+1], "== ") && lines[i+1] != "" {
			i++
		}
	}
	if len(twins) == 0 || len(twins) != len(records) {
		t.Fatalf("the parent's transcript has %d mapped-* records and %d dense-* ones", len(twins), len(records))
	}
	for name, text := range twins {
		if records[name] != text {
			t.Fatalf("mapped-%s is not its dense-* twin:\n%s\n%s", name, text, records[name])
		}
	}
	return []byte(strings.Join(kept, "\n"))
}
