package main

import (
	"reflect"
	"strings"
	"testing"
	"time"
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
