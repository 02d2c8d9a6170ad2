package main

// mapped-edits: reads beside writes on the on-disk index. One client reads
// uncached (CacheSize -1) from a server over the mmap-backed v2 file of a
// low-degree citation graph, and after every four reads posts a batch of
// eight edge edits, which the index repairs and rewrites on disk.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"
)

const (
	mappedVertices   = 15000
	mappedAvgDeg     = 4
	mappedGraphSeed  = 1
	mappedBudget     = 64 << 20 // streaming-build byte budget
	mappedColdRounds = 6        // per set-up
	mappedRounds     = 40       // measured rounds of 4 reads + 1 edit batch at defaultSeconds
	mappedPrecisionN = 30
	mappedIndexFile  = "index.v2"
	mappedTwinFile   = "twin.v2"
)

type mappedInstance struct {
	g      graphT
	ix     indexT
	server *httptest.Server
	client *client

	genS, streamS, openMs, prepareS float64
}

func (in *mappedInstance) close() {
	in.client.close()
	in.server.Close()
	in.ix.close()
}

// openMappedIndex is the mapped half of a set-up: open the file, attach the
// graph, build the visit index edits need.
func openMappedIndex(in *mappedInstance, path string, workers int) error {
	t0 := time.Now()
	ix, err := openMapped(path)
	if err != nil {
		return err
	}
	in.openMs = ms(time.Since(t0))
	in.ix = ix
	if err := ix.attachGraph(in.g); err != nil {
		return err
	}
	t0 = time.Now()
	err = ix.prepareUpdates(workers)
	in.prepareS = time.Since(t0).Seconds()
	return err
}

func runMappedEdits(c config) (*result, error) {
	n := c.shrink(mappedVertices, 1500)
	cold := c.shrink(mappedColdRounds, 1)
	rounds := c.scale(mappedRounds, 6)
	path := filepath.Join(c.tmpDir, mappedIndexFile)
	cfg := serverConfig{cacheSize: -1, workers: c.workers, requestTimeout: serveTimeout}
	res := &result{e2e: map[string]float64{}, layer: map[string]float64{}}

	// The op sequence is drawn once, against the benchmark's own model of
	// the edge set; every set-up replays the same cold rounds on a fresh
	// file.
	g0 := citationGraph(n, mappedAvgDeg, mappedGraphSeed)
	model := newEdgeModel(n, g0.edges())
	rng := rand.New(rand.NewSource(c.seed))
	coldOps := genMappedOps(model, cold, rng)
	measuredOps := genMappedOps(model, rounds, rng)

	inst, setupS, err := repeatSetup(setupReps, func() (*mappedInstance, error) {
		in := &mappedInstance{}
		t0 := time.Now()
		in.g = citationGraph(n, mappedAvgDeg, mappedGraphSeed)
		in.genS = time.Since(t0).Seconds()
		t0 = time.Now()
		if err := buildIndexFile(in.g, mappedGraphSeed, c.workers, path, mappedBudget); err != nil {
			return nil, err
		}
		in.streamS = time.Since(t0).Seconds()
		if err := openMappedIndex(in, path, c.workers); err != nil {
			return nil, err
		}
		in.server = httptest.NewServer(newServer(in.ix, cfg))
		in.client = newClient()
		if lr := runClosedLoop(in.server.URL, []*client{in.client}, [][]op{coldOps}); lr.failed > 0 {
			in.close()
			return nil, fmt.Errorf("mapped-edits: warm-up op failed: %v", lr.firstFailure)
		}
		return in, nil
	}, (*mappedInstance).close)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	res.note("graph=citation n=%d m=%d graph_seed=%d clients=1 cold_rounds=%d measured_rounds=%d reads_per_round=%d edits_per_batch=%d ops_digest=%s",
		n, g0.m(), mappedGraphSeed, cold, rounds, readsRound, editAdds+editRemove, opDigest(coldOps, measuredOps))

	// Measured phase.
	mem := markMem()
	lr := runClosedLoop(inst.server.URL, []*client{inst.client}, [][]op{measuredOps})
	mem.layerMetrics(lr.attempted, res.layer)
	res.attempted, res.failed = lr.attempted, lr.failed
	if lr.failed > 0 {
		res.note("first_failure=%q", lr.firstFailure)
	}

	// Checks: the repaired, rewritten index must be the index a fresh
	// build on the edited graph gives, in memory and on disk.
	edited, err := graphFromEdges(n, model.list)
	if err != nil {
		return nil, err
	}
	fresh, err := buildIndex(edited, mappedGraphSeed, c.workers)
	if err != nil {
		return nil, err
	}
	if !inst.ix.equal(fresh) {
		return nil, fmt.Errorf("mapped-edits: after %d edit batches the served index differs from a fresh build on the edited graph", cold+rounds)
	}
	reloaded, err := loadIndexFile(path)
	if err != nil {
		return nil, fmt.Errorf("mapped-edits: the rewritten file does not reload: %v", err)
	}
	if !reloaded.equal(fresh) {
		return nil, fmt.Errorf("mapped-edits: the rewritten file reloads to a different index than a fresh build")
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	var overlaps []float64
	ctx := context.Background()
	for _, q := range pickSources(n, mappedPrecisionN, mappedGraphSeed) {
		got, err := servedTopK(inst.client, inst.server.URL, q, 10)
		if err != nil {
			return nil, err
		}
		want, err := fresh.referenceTopK(ctx, q, 10)
		if err != nil {
			return nil, err
		}
		overlaps = append(overlaps, overlap(got, want))
	}

	tailP := tailPercentile(len(lr.primary))
	res.e2e["setup_s"] = setupS
	res.e2e["op_p50_ms"] = median(millis(lr.primary))
	res.e2e["op_tail_ms"] = quantile(millis(lr.primary), tailP)
	res.e2e["throughput_ops_s"] = float64(lr.attempted-lr.failed) / lr.wall.Seconds()
	res.e2e["second_op_p50_ms"] = median(millis(lr.second))
	res.e2e["index_bytes_per_vertex"] = float64(fi.Size()) / float64(n)
	res.e2e["precision_at_10"] = mean(overlaps)
	res.note("primary=reads samples=%d tail=p%.0f second=edit_batch samples=%d measured_wall_s=%.2f file_bytes=%d precision_sources=%d",
		len(lr.primary), tailP*100, len(lr.second), lr.wall.Seconds(), fi.Size(), len(overlaps))

	if c.trace {
		l := res.layer
		l["graph.gen_s"] = inst.genS
		l["walkindex.stream_build_s"] = inst.streamS
		l["walkindex.open_mapped_ms"] = inst.openMs
		l["walkindex.prepare_updates_s"] = inst.prepareS
		l["walkindex.file_bytes"] = float64(fi.Size())
		l["walkindex.dense_bytes"] = float64(fresh.bytes())
		l["simrankd.response_bytes_per_op"] = float64(lr.respBytes) / float64(lr.attempted)
		if err := traceMappedEdits(c, cfg, coldOps, measuredOps, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceMappedEdits replays the whole sequence from the initial graph on
// three fresh copies of the index: a mapped one behind a server (the
// requests), a mapped twin and a dense twin called directly (the layers
// beneath). The cold rounds are replayed unrecorded so the measured rounds
// meet the same graph they met in the measured phase.
func traceMappedEdits(c config, cfg serverConfig, coldOps, measuredOps []op, res *result) error {
	n := c.shrink(mappedVertices, 1500)
	g := citationGraph(n, mappedAvgDeg, mappedGraphSeed)
	paths := [2]string{filepath.Join(c.tmpDir, "traced-"+mappedIndexFile), filepath.Join(c.tmpDir, mappedTwinFile)}
	var mappedIx [2]*mappedInstance
	for i, p := range paths {
		if err := buildIndexFile(g, mappedGraphSeed, c.workers, p, mappedBudget); err != nil {
			return err
		}
		mappedIx[i] = &mappedInstance{g: g}
		if err := openMappedIndex(mappedIx[i], p, c.workers); err != nil {
			return err
		}
		defer mappedIx[i].ix.close()
	}
	served, twin := mappedIx[0].ix, mappedIx[1].ix
	dense, err := buildIndex(g, mappedGraphSeed, c.workers)
	if err != nil {
		return err
	}
	if err := dense.prepareUpdates(c.workers); err != nil {
		return err
	}
	ts := httptest.NewServer(newServer(served, cfg))
	defer ts.Close()
	cl := newClient()
	defer cl.close()

	ctx := context.Background()
	tr := newTracer()
	row := make([]float64, n)
	var replayWall time.Duration
	for i, o := range append(append([]op(nil), coldOps...), measuredOps...) {
		record := i >= len(coldOps)
		t0 := time.Now()
		root := tr.start("op."+o.kind.String(), 0, i)
		r := renderOp(o)
		name := "simrankd.request_miss"
		if o.kind == opEdges {
			name = "simrankd.edges_request"
		}
		req := tr.start(name, root, i)
		status, hdr, body, err := cl.do(ts.URL, r)
		tr.end(req)
		if err == nil {
			err = checkResponse(o, status, hdr, body)
		}
		if err != nil {
			return err
		}
		if o.kind == opEdges {
			apply := tr.start("query.apply_edits", req, i)
			repaired, err := twin.applyEdits(o.edits, c.workers)
			tr.end(apply)
			if err != nil {
				return err
			}
			tr.count(apply, "walks_repaired", float64(repaired))
			id := tr.start("graph.apply_edits", apply, i)
			g2, dirtyIn, err := dense.graph().applyEdits(o.edits)
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.start("walkindex.update", apply, i)
			_, err = dense.update(g2, dirtyIn, c.workers)
			tr.end(id)
			if err != nil {
				return err
			}
		} else {
			id := tr.start("walkindex.mapped_sweep", req, i)
			_, err = twin.singleSourceInto(ctx, int(o.q), row)
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.start("walkindex.dense_sweep", 0, i)
			_, err = dense.singleSourceInto(ctx, int(o.q), row)
			tr.end(id)
			if err != nil {
				return err
			}
			if o.kind == opTopK {
				id = tr.start("query.rank", req, i)
				_, err = dense.topKFromScores(ctx, row, int(o.q), 10, false)
				tr.end(id)
				if err != nil {
					return err
				}
			}
			id = tr.start("loadgen.client_floor", root, i)
			if _, _, _, err := cl.do(ts.URL, request{method: http.MethodGet, path: "/healthz"}); err != nil {
				return err
			}
			tr.end(id)
		}
		tr.end(root)
		if record {
			replayWall += time.Since(t0)
		} else {
			tr.spans = tr.spans[:0]
		}
	}
	if !twin.equal(dense) || !served.equal(dense) {
		return fmt.Errorf("mapped-edits: traced replay: mapped and dense twins diverged")
	}
	if err := tr.write(spanFile(c)); err != nil {
		return err
	}

	l := res.layer
	l["simrankd.request_miss_ms"] = median(tr.durations("simrankd.request_miss"))
	l["simrankd.self_ms"] = median(tr.selfTimes("simrankd.request_miss"))
	l["simrankd.edges_request_ms"] = median(tr.durations("simrankd.edges_request"))
	l["walkindex.mapped_sweep_ms"] = median(tr.durations("walkindex.mapped_sweep"))
	l["walkindex.dense_sweep_ms"] = median(tr.durations("walkindex.dense_sweep"))
	l["walkindex.mapped_vs_dense_ratio"] = l["walkindex.mapped_sweep_ms"] / l["walkindex.dense_sweep_ms"]
	l["query.rank_ms"] = median(tr.durations("query.rank"))
	l["query.apply_edits_ms"] = median(tr.durations("query.apply_edits"))
	l["graph.apply_edits_ms"] = median(tr.durations("graph.apply_edits"))
	l["walkindex.update_ms"] = median(tr.durations("walkindex.update"))
	l["walkindex.walks_repaired_per_batch"] = mean(tr.counts("query.apply_edits", "walks_repaired"))
	l["atomicio.rewrite_ms"] = median(tr.selfTimes("query.apply_edits"))
	l["loadgen.client_floor_ms"] = median(tr.durations("loadgen.client_floor"))
	l["trace.overhead_ratio"] = float64(len(measuredOps)) / replayWall.Seconds() / res.e2e["throughput_ops_s"]
	res.note("trace: replayed_ops=%d spans=%d file=%s replay_wall_s=%.1f", len(measuredOps), len(tr.spans), spanFile(c), replayWall.Seconds())
	return nil
}
