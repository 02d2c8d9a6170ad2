package simrankd

import (
	"net/http/httptest"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/simrank/query"
	"oipsr/simrank/shard"
)

// newServer is the test shorthand predating Config: cacheSize 0 means
// caching off (Config uses negative for that), workers as given,
// everything else default.
func newServer(idx *query.Index, cacheSize, workers int) *Server {
	if cacheSize == 0 {
		cacheSize = -1
	}
	return NewServer(idx, Config{CacheSize: cacheSize, Workers: workers})
}

// backendKinds are the two row sources the /v1 front end runs over. Every
// suite about the front end's own behaviour — admission, deadlines,
// degradation, streaming, caching, methods — runs once per kind through
// forEachBackend, so nothing about it is checked on one source only.
var backendKinds = []string{"local", "fleet"}

func forEachBackend(t *testing.T, f func(t *testing.T, kind string)) {
	t.Helper()
	for _, kind := range backendKinds {
		t.Run(kind, func(t *testing.T) { f(t, kind) })
	}
}

// newBackend builds the front end over g: "local" is NewServer over a
// built index, "fleet" is NewRouter over two in-process shard servers
// (default limits: the suites saturate the front end, not its backends).
func newBackend(t *testing.T, kind string, g *graph.Graph, opt query.Options, cfg Config) *Server {
	t.Helper()
	if kind == "local" {
		idx, err := query.BuildIndex(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		return NewServer(idx, cfg)
	}
	ranges, err := shard.Plan(g.NumVertices(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for _, rg := range ranges {
		sh, err := shard.Build(g, opt, rg.Lo, rg.Hi)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := NewShardServer(sh, Config{Workers: cfg.Workers})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(ss)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	rt, err := NewRouter(g, urls, RouterConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// smallBackend is smallIndex's graph and options behind either source.
func smallBackend(t *testing.T, kind string, cfg Config) *Server {
	t.Helper()
	return newBackend(t, kind, gen.WebGraph(120, 6, 55), query.Options{Walks: 60, Seed: 5}, cfg)
}

// exactBuilt reports whether the source's linearized solver is built for
// its current graph.
func exactBuilt(s *Server) bool {
	switch src := s.src.(type) {
	case *localSource:
		_, ok := src.idx.ExactStats()
		return ok
	case *fleetSource:
		src.exact.mu.Lock()
		defer src.exact.mu.Unlock()
		return src.exact.solver != nil && src.exact.g == src.g
	}
	return false
}
