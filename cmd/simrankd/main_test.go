package main

import (
	"bytes"
	"errors"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/internal/walkindex"
	"oipsr/simrank/query"
)

// goodOptions is a valid baseline; each failure case perturbs one field.
func goodOptions() options {
	return options{
		mode:        "serve",
		maxBatch:    256,
		joinCand:    100000,
		maxInflight: 8,
		queueDepth:  0,
		reqTimeout:  10 * time.Second,
		drain:       10 * time.Second,
	}
}

func TestValidateRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*options)
		want string // substring of the error
	}{
		{"bad_mode", func(o *options) { o.mode = "cluster" }, "-mode"},
		{"zero_max_batch", func(o *options) { o.maxBatch = 0 }, "-max-batch"},
		{"neg_join_cand", func(o *options) { o.joinCand = -5 }, "-join-max-candidates"},
		{"zero_inflight", func(o *options) { o.maxInflight = 0 }, "-max-inflight"},
		{"neg_inflight", func(o *options) { o.maxInflight = -3 }, "-max-inflight"},
		{"queue_below_sentinel", func(o *options) { o.queueDepth = -2 }, "-queue-depth"},
		{"neg_timeout", func(o *options) { o.reqTimeout = -time.Second }, "-request-timeout"},
		{"neg_drain", func(o *options) { o.drain = -time.Second }, "-shutdown-drain"},
		// build-shards is a retired mode: shards build their ranges from
		// the graph, so there is no directory to write.
		{"build_no_shards", func(o *options) { o.mode = "build-shards" }, "-mode"},
		{"build_no_dir", func(o *options) { o.mode = "build-shards"; o.shards = 2 }, "-mode"},
		{"build_shards", func(o *options) { o.mode = "build-shards"; o.shards = 4 }, "-mode"},
		{"shard_no_source", func(o *options) { o.mode = "shard" }, "-shards"},
		{"shard_neg_ordinal", func(o *options) { o.mode = "shard"; o.shards = 2; o.shardOrdinal = -1 }, "-shard-ordinal"},
		{"shard_ordinal_oob", func(o *options) { o.mode = "shard"; o.shards = 2; o.shardOrdinal = 2 }, "-shard-ordinal"},
		{"router_no_backends", func(o *options) { o.mode = "router" }, "-backends"},
		{"router_blank_backends", func(o *options) { o.mode = "router"; o.backends = " , ," }, "-backends"},
		{"router_neg_shard_timeout", func(o *options) {
			o.mode = "router"
			o.backends = "http://a:1"
			o.shardTimeout = -time.Second
		}, "-shard-timeout"},
		{"mmap_no_index", func(o *options) { o.indexMmap = true }, "-index"},
		{"mmap_router", func(o *options) {
			o.mode = "router"
			o.backends = "http://a:1"
			o.indexMmap = true
		}, "-index-mmap"},
		// A shard keeps no file to write back to.
		{"mmap_shard_no_dir", func(o *options) {
			o.mode = "shard"
			o.shards = 2
			o.indexMmap = true
		}, "-index-mmap"},
		{"shard_mmap", func(o *options) {
			o.mode = "shard"
			o.shards = 3
			o.indexMmap = true
			o.indexPath = "walks.idx"
		}, "-index-mmap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := goodOptions()
			tc.mut(&o)
			err := validate(&o)
			if err == nil {
				t.Fatalf("validate accepted %+v", o)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the offending flag %q", err, tc.want)
			}
		})
	}
}

func TestValidateAcceptsGoodFlags(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*options)
	}{
		{"serve_defaults", func(o *options) {}},
		{"no_queue_sentinel", func(o *options) { o.queueDepth = -1 }},
		{"no_timeout", func(o *options) { o.reqTimeout = 0 }},
		{"shard_in_memory", func(o *options) { o.mode = "shard"; o.shards = 3; o.shardOrdinal = 2 }},
		{"router", func(o *options) { o.mode = "router"; o.backends = "http://a:1, http://b:2" }},
		{"serve_mmap", func(o *options) { o.indexMmap = true; o.indexPath = "walks.idx" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := goodOptions()
			tc.mut(&o)
			if err := validate(&o); err != nil {
				t.Fatalf("validate rejected %+v: %v", o, err)
			}
		})
	}
}

func TestSplitBackends(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{" , ,", nil},
		{"http://a:1", []string{"http://a:1"}},
		{"http://a:1,http://b:2", []string{"http://a:1", "http://b:2"}},
		{" http://a:1 , http://b:2 ", []string{"http://a:1", "http://b:2"}},
	}
	for _, tc := range cases {
		if got := splitBackends(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitBackends(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestOpenIndexWarnsOnMismatchedFlags: an index loaded from disk is served
// with the parameters it was built with, whatever -walks / -c / -k / -seed
// say, and both ways of loading one say so — the -index file decoded and
// mapped — while flags that agree, and a shard, which is always built from
// the flags, warn about nothing.
func TestOpenIndexWarnsOnMismatchedFlags(t *testing.T) {
	g := gen.WebGraph(80, 5, 3)
	built := query.Options{Walks: 12, Seed: 3, Workers: 1}
	indexPath := filepath.Join(t.TempDir(), "web.idx")
	if _, err := query.BuildFileStreaming(g, built, indexPath, 1<<20); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*options)
		lo   int
	}{
		{"serve_index", func(o *options) { o.indexPath = indexPath }, 0},
		{"serve_index_mmap", func(o *options) { o.indexPath = indexPath; o.indexMmap = true }, 0},
		{"shard_in_memory", func(o *options) { o.mode = "shard"; o.shards = 2; o.shardOrdinal = 1 }, 40},
	} {
		for _, flags := range []struct {
			name string
			opt  query.Options
			want []string // what the warning must name; nil = no warning
		}{
			{"agree", built, nil},
			{"disagree", query.Options{Walks: 30, C: 0.8, K: 5, Seed: 9, Workers: 1},
				[]string{"WARNING", "walks 12 vs -walks 30", "c 0.6 vs -c 0.8", "vs -k 5", "seed 3 vs -seed 9"}},
		} {
			t.Run(tc.name+"/"+flags.name, func(t *testing.T) {
				o := goodOptions()
				tc.mut(&o)
				if err := validate(&o); err != nil {
					t.Fatal(err)
				}
				var logged bytes.Buffer
				log.SetOutput(&logged)
				defer log.SetOutput(os.Stderr)
				idx, err := openIndex(g, &o, flags.opt)
				if err != nil {
					t.Fatal(err)
				}
				defer idx.Close()
				if idx.Lo() != tc.lo || idx.Graph() != g {
					t.Fatalf("opened [%d,%d), graph attached = %v; want lo = %d with the graph", idx.Lo(), idx.Hi(), idx.Graph() == g, tc.lo)
				}
				want := flags.want
				if tc.name == "shard_in_memory" {
					want = nil // built from the flags, so it cannot disagree with them
				}
				if want == nil && strings.Contains(logged.String(), "WARNING") {
					t.Fatalf("unexpected warning:\n%s", logged.String())
				}
				for _, w := range want {
					if !strings.Contains(logged.String(), w) {
						t.Errorf("log does not mention %q:\n%s", w, logged.String())
					}
				}
			})
		}
	}
}

// TestOpenIndexRefusesOtherGraph: the order of a loaded index is sorted
// from the graph the flags give, so an -index file whose walks that graph
// does not reproduce — vertex 0's in-edges moved to vertex 1 — fails
// start-up, decoded or written back, instead of serving an order that
// disagrees with the rows.
func TestOpenIndexRefusesOtherGraph(t *testing.T) {
	g := gen.WebGraph(80, 5, 3)
	opt := query.Options{Walks: 12, Seed: 3, Workers: 1}
	indexPath := filepath.Join(t.TempDir(), "web.idx")
	if _, err := query.BuildFileStreaming(g, opt, indexPath, 1<<20); err != nil {
		t.Fatal(err)
	}
	if len(g.In(0)) == 0 {
		t.Fatal("vertex 0 has no in-edges to move")
	}
	var edits []graph.Edit
	for _, u := range g.In(0) {
		edits = append(edits, graph.Edit{Op: graph.EditRemove, U: u, V: 0}, graph.Edit{Op: graph.EditAdd, U: u, V: 1})
	}
	moved, _, err := g.ApplyEdits(edits)
	if err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{false, true} {
		o := goodOptions()
		o.indexPath, o.indexMmap = indexPath, mmap
		if err := validate(&o); err != nil {
			t.Fatal(err)
		}
		if idx, err := openIndex(moved, &o, opt); err == nil || !strings.Contains(err.Error(), "does not match the graph") {
			if err == nil {
				idx.Close()
			}
			t.Fatalf("-index-mmap=%v on a graph with vertex 0's in-edges moved: err = %v, want a refusal", mmap, err)
		}
		idx, err := openIndex(g, &o, opt)
		if err != nil {
			t.Fatalf("-index-mmap=%v on the index's own graph: %v", mmap, err)
		}
		idx.Close()
	}
}

// TestOpenIndexRefusesRetiredShard: a shard file of the retired layout —
// the parent's [10, 120) file, with its owned range in a longer header —
// given as -index fails start-up, decoded or written back, with a clean
// ErrBadMagic, and is left as it was.
func TestOpenIndexRefusesRetiredShard(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "walkindex", "testdata", "parent", "parent-v2.shard"))
	if err != nil {
		t.Fatal(err)
	}
	g := gen.WebGraph(130, 5, 7)
	for _, mmap := range []bool{false, true} {
		o := goodOptions()
		o.indexPath, o.indexMmap = filepath.Join(t.TempDir(), "shard-0000.srwk"), mmap
		if err := os.WriteFile(o.indexPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := validate(&o); err != nil {
			t.Fatal(err)
		}
		if idx, err := openIndex(g, &o, query.Options{C: 0.7, K: 6, Walks: 8, Seed: 42}); !errors.Is(err, walkindex.ErrBadMagic) {
			if err == nil {
				idx.Close()
			}
			t.Fatalf("-index-mmap=%v: err = %v, want ErrBadMagic", mmap, err)
		}
		if got, err := os.ReadFile(o.indexPath); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("-index-mmap=%v: the refused file changed (read err %v)", mmap, err)
		}
	}
}

// TestOpenIndexRestartAfterEdits: an -index-mmap file holds the edited
// walks once a batch is written back, so a restart on the graph the flags
// gave before the batch fails start-up — even when the batch moved the
// walks of a single vertex, one that opens no posting block — and a
// restart on the edited graph serves the edited index.
func TestOpenIndexRestartAfterEdits(t *testing.T) {
	g := gen.ErdosRenyi(200, 600, 5)
	opt := query.Options{Walks: 12, Seed: 3, Workers: 1}
	o := goodOptions()
	o.indexPath, o.indexMmap = filepath.Join(t.TempDir(), "er.idx"), true
	if err := validate(&o); err != nil {
		t.Fatal(err)
	}
	idx, err := openIndex(g, &o, opt)
	if err != nil {
		t.Fatal(err)
	}
	// A sink (no walk but its own stands on it) that opens no 64-vertex
	// posting block loses an in-edge.
	edit := graph.Edit{V: -1}
	for v := g.NumVertices() - 1; v > 0 && edit.V < 0; v-- {
		if v%64 != 0 && g.OutDegree(v) == 0 && g.InDegree(v) > 0 {
			edit = graph.Edit{Op: graph.EditRemove, U: g.In(v)[0], V: v}
		}
	}
	if edit.V < 0 {
		t.Fatal("no sink with an in-edge opens no posting block")
	}
	if st, err := idx.ApplyEdits([]graph.Edit{edit}, 1); err != nil || st.WalksRepaired == 0 {
		t.Fatalf("edit batch: stats %+v, err %v; want walks repaired", st, err)
	}
	edited := idx.Graph()
	idx.Close()

	if idx, err := openIndex(g, &o, opt); err == nil || !strings.Contains(err.Error(), "does not match the graph") {
		if err == nil {
			idx.Close()
		}
		t.Fatalf("restart on the graph before the batch: err = %v, want a refusal", err)
	}
	idx, err = openIndex(edited, &o, opt)
	if err != nil {
		t.Fatalf("restart on the edited graph: %v", err)
	}
	defer idx.Close()
	fresh, err := query.BuildIndex(edited, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !idx.Equal(fresh) {
		t.Fatal("restart on the edited graph: not the index a fresh build on it gives")
	}
}

// TestOpenIndexFreshBuild runs openIndex's two fresh builds on a missing
// -index file: in memory and saved without -index-mmap, streamed into the
// file and opened once with it. Each publishes exactly SaveFile's bytes
// for query.BuildIndex and serves an index Equal to it; the streamed one
// writes back: after an edit batch the file and its edit log reload to the
// edited index, and after Close the file is SaveFile of it.
func TestOpenIndexFreshBuild(t *testing.T) {
	g := gen.WebGraph(150, 5, 4)
	opt := query.Options{Walks: 12, Seed: 3, Workers: 2}
	want, err := query.BuildIndex(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	// saved is what SaveFile publishes for ix.
	saved := func(ix *query.Index) []byte {
		path := filepath.Join(t.TempDir(), "saved.idx")
		if err := ix.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, tc := range []struct {
		name    string
		mmap    bool
		backend string
		how     string // the log's word for the opening
	}{
		{"built_and_saved", false, "dense", "index: saved"},
		{"streamed_and_opened", true, "write-back", "index: opened"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := goodOptions()
			o.indexPath = filepath.Join(t.TempDir(), "fresh.idx")
			o.indexMmap = tc.mmap
			if err := validate(&o); err != nil {
				t.Fatal(err)
			}
			var logged bytes.Buffer
			log.SetOutput(&logged)
			defer log.SetOutput(os.Stderr)
			idx, err := openIndex(g, &o, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			if !strings.Contains(logged.String(), tc.how) {
				t.Errorf("log does not say %q:\n%s", tc.how, logged.String())
			}
			if !idx.Equal(want) || idx.Graph() != g {
				t.Fatalf("served index Equal = %v, graph attached = %v", idx.Equal(want), idx.Graph() == g)
			}
			if got := idx.Backend(); got != tc.backend {
				t.Fatalf("backend %q, want %q", got, tc.backend)
			}
			file, err := os.ReadFile(o.indexPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(file, saved(want)) {
				t.Fatal("the published file is not SaveFile's for query.BuildIndex")
			}
			if !tc.mmap {
				return
			}
			if _, err := idx.ApplyEdits([]graph.Edit{{Op: graph.EditAdd, U: 17, V: 42}, {Op: graph.EditAdd, U: 3, V: 99}}, 1); err != nil {
				t.Fatal(err)
			}
			reloaded, err := query.LoadFile(o.indexPath)
			if err != nil {
				t.Fatal(err)
			}
			if reloaded.Equal(want) || !reloaded.Equal(idx) {
				t.Fatal("after an edit batch the file and its edit log do not reload to the edited index")
			}
			edited := saved(idx)
			if err := idx.Close(); err != nil {
				t.Fatal(err)
			}
			if file, err = os.ReadFile(o.indexPath); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(file, edited) {
				t.Fatal("after an edit batch and Close the file is not SaveFile of the edited index")
			}
		})
	}
}
