package main

import (
	"bytes"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"oipsr/graph/gen"
	"oipsr/simrank/query"
	"oipsr/simrank/shard"
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
		{"build_no_shards", func(o *options) { o.mode = "build-shards"; o.shardDir = "x" }, "-shards"},
		{"build_no_dir", func(o *options) { o.mode = "build-shards"; o.shards = 2 }, "-shard-dir"},
		{"shard_no_source", func(o *options) { o.mode = "shard" }, "-shard-dir"},
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
		{"mmap_shard_no_dir", func(o *options) {
			o.mode = "shard"
			o.shards = 2
			o.indexMmap = true
		}, "-shard-dir"},
		{"neg_build_budget", func(o *options) { o.buildBudget = -1 }, "-build-budget"},
		{"budget_no_index", func(o *options) { o.buildBudget = 1 << 20 }, "-index"},
		{"budget_shard_mode", func(o *options) {
			o.mode = "shard"
			o.shards = 2
			o.buildBudget = 1 << 20
		}, "-build-budget"},
		{"budget_router_mode", func(o *options) {
			o.mode = "router"
			o.backends = "http://a:1"
			o.buildBudget = 1 << 20
		}, "-build-budget"},
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
		{"build_shards", func(o *options) { o.mode = "build-shards"; o.shards = 4; o.shardDir = "s/" }},
		{"shard_from_dir", func(o *options) { o.mode = "shard"; o.shardDir = "s/"; o.shardOrdinal = 7 }},
		{"shard_in_memory", func(o *options) { o.mode = "shard"; o.shards = 3; o.shardOrdinal = 2 }},
		{"router", func(o *options) { o.mode = "router"; o.backends = "http://a:1, http://b:2" }},
		{"serve_mmap", func(o *options) { o.indexMmap = true; o.indexPath = "walks.idx" }},
		{"shard_mmap", func(o *options) { o.mode = "shard"; o.shardDir = "s/"; o.indexMmap = true }},
		{"serve_budget", func(o *options) { o.buildBudget = 256 << 20; o.indexPath = "walks.idx" }},
		{"serve_budget_mmap", func(o *options) {
			o.buildBudget = 1 << 20
			o.indexPath = "walks.idx"
			o.indexMmap = true
		}},
		{"build_shards_budget", func(o *options) {
			o.mode = "build-shards"
			o.shards = 4
			o.shardDir = "s/"
			o.buildBudget = 64 << 20
		}},
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
// say, and every way of loading one says so — the -index file and the
// -shard-dir manifest entry, decoded and mapped — while flags that agree,
// and a fresh build, warn about nothing.
func TestOpenIndexWarnsOnMismatchedFlags(t *testing.T) {
	g := gen.WebGraph(80, 5, 3)
	built := query.Options{Walks: 12, Seed: 3, Workers: 1}
	dir := t.TempDir()
	indexPath := filepath.Join(dir, "web.idx")
	if _, err := query.BuildFileStreaming(g, built, indexPath, 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.BuildAll(g, built, dir, 2, 0); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*options)
		lo   int
	}{
		{"serve_index", func(o *options) { o.indexPath = indexPath }, 0},
		{"serve_index_mmap", func(o *options) { o.indexPath = indexPath; o.indexMmap = true }, 0},
		{"shard_dir", func(o *options) { o.mode = "shard"; o.shardDir = dir; o.shardOrdinal = 1 }, 40},
		{"shard_dir_mmap", func(o *options) { o.mode = "shard"; o.shardDir = dir; o.shardOrdinal = 1; o.indexMmap = true }, 40},
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
