package simrankd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oipsr/graph"
	"oipsr/internal/linsr"
	"oipsr/internal/sparserow"
	"oipsr/internal/walkindex"
	"oipsr/simrank/query"
	"oipsr/simrank/shard"
)

// fleetSource is the row source of router mode: the stateless
// scatter/gather front of a shard fleet. It fills the /v1 front end's
// requests by scattering to the shard backends over HTTP and merging their
// partials:
//
//   - score rows merge by concatenation: each shard owns a disjoint
//     contiguous vertex range and answers with the sorted non-zero entries
//     of its range (legwire.go), so appending the legs' runs in range order
//     is the single-node sparse row, bit for bit — no float arithmetic
//     happens in the merge (ranking and the optional rerank then run once,
//     in the front end, over the merged row);
//   - joins scatter along the fingerprint axis (each backend enumerates
//     candidates for one fp range), union here, and scatter pair scoring
//     back to the owner of each pair's first vertex;
//   - edits broadcast to every backend — they are idempotent at the graph
//     layer, so retrying a partially-applied broadcast converges.
//
// It holds the full graph (tiny next to the walk rows, which live only on
// the shards) for reranking, for validating edits and for the linearized
// engine, and the per-shard generation vector whose rendering is the
// front end's cache tag: any shard update changes the vector, so stale
// merges are unreachable, exactly the single-node generation-key scheme
// lifted to a fleet.
//
// Each scatter leg runs under shardTimeout; a backend that sheds, fails,
// or times out mid-scatter costs its vertex range, not the request — the
// merged answer holds nothing for the missing range (zeros) and degraded=true,
// which the front end turns into the "degraded" field, the
// X-Simrank-Degraded header, and a body that is never cached.
type fleetSource struct {
	// g, gens and tag change only under the front end's write lock
	// (applyEdits); every query reads them under its read lock, so a
	// broadcast cannot interleave with a scatter.
	g    *graph.Graph
	gens []uint64
	// tag is gens rendered as the cache-key prefix ("0.0.2" for three
	// shards), re-rendered when a broadcast moves a generation.
	tag string

	client       *http.Client
	backends     []string
	ranges       []shard.Range
	fpRanges     []shard.Range
	shardTimeout time.Duration

	n       int
	walks   int
	horizon int
	c       float64

	// exact holds the lazily-built linearized solver: the fleet source has
	// the full graph, so exact rows are solved locally, not scattered.
	exact fleetExact

	// shardErrors counts failed scatter legs (shed, error, timeout) — each
	// one degrades a merged answer. legBytes and legRows count what the
	// healthy score legs delivered: body bytes and rows.
	shardErrors atomic.Int64
	legBytes    atomic.Int64
	legRows     atomic.Int64
}

// DefaultShardTimeout bounds one scatter leg when RouterConfig.ShardTimeout
// is zero: long enough for a cold partial sweep, short enough that a hung
// backend degrades the answer instead of consuming the whole request
// deadline.
const DefaultShardTimeout = 5 * time.Second

// RouterConfig configures NewRouter: the shared serving knobs plus the
// per-backend scatter deadline.
type RouterConfig struct {
	Config
	// ShardTimeout is the deadline of one scatter leg to one backend
	// (always also capped by the request deadline); 0 means
	// DefaultShardTimeout.
	ShardTimeout time.Duration
}

// NewRouter probes every backend's /healthz, validates that they form a
// contiguous partition of one index (same n, walks, horizon, c, seed;
// ranges covering [0, n)), and returns the /v1 front end over the fleet —
// the same Server type, and so the same public surface byte for byte, as
// NewServer's. g must be the same graph the shards were built on — the
// router reranks and validates edits against it. Backends may be listed
// in any order.
func NewRouter(g *graph.Graph, backends []string, cfg RouterConfig) (*Server, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("simrankd: router needs at least one shard backend")
	}
	// Every admitted request scatters one leg to every backend at once, so
	// a backend sees up to maxInflight concurrent legs; an idle pool any
	// smaller (http.DefaultTransport keeps 2 per host) closes the surplus
	// connections after each burst and dials them again for the next.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = 0
	transport.MaxIdleConnsPerHost = cfg.resolvedMaxInflight()
	rt := &fleetSource{
		g:            g,
		client:       &http.Client{Transport: transport},
		shardTimeout: cfg.ShardTimeout,
	}
	if rt.shardTimeout <= 0 {
		rt.shardTimeout = DefaultShardTimeout
	}

	// Probe each backend, then sort by range so backends[i] owns ranges[i]
	// in ascending vertex order.
	type probed struct {
		url string
		h   shardHealthzResponse
	}
	probes := make([]probed, 0, len(backends))
	for _, base := range backends {
		base = strings.TrimRight(base, "/")
		h, err := rt.probe(base)
		if err != nil {
			return nil, fmt.Errorf("simrankd: probing %s: %w", base, err)
		}
		probes = append(probes, probed{url: base, h: h})
	}
	sort.Slice(probes, func(i, j int) bool { return probes[i].h.Lo < probes[j].h.Lo })

	first := probes[0].h
	if g.NumVertices() != first.Vertices {
		return nil, fmt.Errorf("simrankd: router graph has %d vertices, shards were built on %d", g.NumVertices(), first.Vertices)
	}
	next := 0
	for _, p := range probes {
		h := p.h
		if h.Vertices != first.Vertices || h.Walks != first.Walks || h.Horizon != first.Horizon ||
			h.C != first.C || h.Seed != first.Seed {
			return nil, fmt.Errorf("simrankd: backend %s disagrees with the fleet (n=%d walks=%d horizon=%d c=%v seed=%d)",
				p.url, h.Vertices, h.Walks, h.Horizon, h.C, h.Seed)
		}
		if h.Lo != next || h.Hi < h.Lo {
			return nil, fmt.Errorf("simrankd: backend %s range [%d,%d) breaks the partition at %d", p.url, h.Lo, h.Hi, next)
		}
		next = h.Hi
		rt.backends = append(rt.backends, p.url)
		rt.ranges = append(rt.ranges, shard.Range{Lo: h.Lo, Hi: h.Hi})
		rt.gens = append(rt.gens, h.Generation)
	}
	if next != first.Vertices {
		return nil, fmt.Errorf("simrankd: backends cover [0,%d) of [0,%d)", next, first.Vertices)
	}
	rt.n = first.Vertices
	rt.walks = first.Walks
	rt.horizon = first.Horizon
	rt.c = first.C
	fpRanges, err := shard.Plan(rt.walks, len(rt.backends))
	if err != nil {
		return nil, err
	}
	rt.fpRanges = fpRanges
	rt.renderTag()
	return newFrontEnd(rt, "router", cfg.Config), nil
}

// probe fetches a backend's /healthz. One that is up but unwell answers
// {"error":…}, which would decode into a zero range: it is refused by its
// status instead.
func (rt *fleetSource) probe(base string) (h shardHealthzResponse, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.shardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("/healthz answered %d: %w", resp.StatusCode, backendError(base, resp))
	}
	return h, json.NewDecoder(io.LimitReader(resp.Body, maxDrainBytes)).Decode(&h)
}

// postShard posts one JSON request to a backend and decodes the JSON
// response.
func (rt *fleetSource) postShard(ctx context.Context, base, path string, reqBody, out any) error {
	payload, err := json.Marshal(reqBody)
	if err != nil {
		return err
	}
	return rt.post(ctx, base, path, payload, func(body io.Reader) error {
		return json.NewDecoder(body).Decode(out)
	})
}

// post posts payload to a backend under a child deadline of shardTimeout
// (the request deadline still applies — a leg never outlives its request)
// and hands the body of a 200 to read. Whatever read leaves unread is
// drained before the body is closed, on every path: a connection goes back
// to the idle pool only once its response has been read to the end.
func (rt *fleetSource) post(ctx context.Context, base, path string, payload []byte, read func(body io.Reader) error) error {
	ctx, cancel := context.WithTimeout(ctx, rt.shardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxDrainBytes))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return backendError(base, resp)
	}
	return read(resp.Body)
}

// backendError is a backend's non-200 as a statusError: its {"error":…}
// text when it sent one, its status otherwise.
func backendError(base string, resp *http.Response) error {
	var eresp errorResponse
	if derr := json.NewDecoder(io.LimitReader(resp.Body, maxDrainBytes)).Decode(&eresp); derr != nil || eresp.Error == "" {
		eresp.Error = fmt.Sprintf("backend %s: status %d", base, resp.StatusCode)
	}
	return &statusError{status: resp.StatusCode, msg: eresp.Error}
}

// maxDrainBytes bounds what post reads past the point its caller stopped:
// enough for any response this protocol leaves a tail of, small enough that
// a backend streaming garbage costs its connection, not the leg's deadline.
const maxDrainBytes = 256 << 10

// renderTag re-renders the generation vector into tag.
func (rt *fleetSource) renderTag() {
	parts := make([]string, len(rt.gens))
	for i, g := range rt.gens {
		parts[i] = strconv.FormatUint(g, 10)
	}
	rt.tag = strings.Join(parts, ".")
}

func (rt *fleetSource) dims() (int, float64, int) { return rt.n, rt.c, rt.horizon }
func (rt *fleetSource) graph() *graph.Graph       { return rt.g }
func (rt *fleetSource) genTag() string            { return rt.tag }

// legBuf is the working memory of one score leg: the raw body and its
// decoded rows.
type legBuf struct {
	body bytes.Buffer
	rows legRows
}

var legPool = sync.Pool{New: func() any { return new(legBuf) }}

// scoresLeg fetches backend i's partial rows for a marshalled scores
// request, nil if the leg failed. A leg is validated whole — the body read
// through the cap of the largest well-formed answer, then format, range,
// generation and row count — before any of it reaches the merge, so a
// failed leg contributes nothing to any row.
func (rt *fleetSource) scoresLeg(ctx context.Context, i int, payload []byte, sources int) *legBuf {
	want := rt.ranges[i]
	leg := legPool.Get().(*legBuf)
	leg.body.Reset()
	err := rt.post(ctx, rt.backends[i], "/shard/v1/scores", payload, func(body io.Reader) error {
		limit := maxLegBytes(sources, want.Hi-want.Lo)
		if _, err := leg.body.ReadFrom(io.LimitReader(body, limit+1)); err != nil {
			return err
		}
		if int64(leg.body.Len()) > limit {
			return fmt.Errorf("%w: longer than any answer to %d sources", errLegMalformed, sources)
		}
		lo, hi, gen, err := leg.rows.decode(leg.body.Bytes())
		if err == nil && (lo != want.Lo || hi != want.Hi || gen != rt.gens[i] || len(leg.rows.ends) != sources) {
			err = fmt.Errorf("%w: [%d,%d) generation %d with %d rows, want [%d,%d) generation %d with %d",
				errLegMalformed, lo, hi, gen, len(leg.rows.ends), want.Lo, want.Hi, rt.gens[i], sources)
		}
		return err
	})
	if err != nil {
		legPool.Put(leg)
		return nil
	}
	return leg
}

// rows scatters one batch of sources to every backend and merges the
// partial rows: each source's row is the legs' runs appended in range
// order. degraded reports that a backend's partial is missing (failed,
// shed, timed out, malformed) or was served at a generation other than the
// recorded one — either way the merge is not the current single-node
// answer, and the row simply has no entries in that backend's range.
func (rt *fleetSource) rows(ctx context.Context, sources []int) ([]*sparserow.Row, bool, error) {
	payload, err := json.Marshal(shardScoresRequest{Sources: sources})
	if err != nil {
		return nil, false, err
	}
	legs := make([]*legBuf, len(rt.backends))
	var wg sync.WaitGroup
	for i := 1; i < len(rt.backends); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			legs[i] = rt.scoresLeg(ctx, i, payload, len(sources))
		}(i)
	}
	legs[0] = rt.scoresLeg(ctx, 0, payload, len(sources)) // the caller's own goroutine takes a leg too
	wg.Wait()
	defer func() {
		for _, leg := range legs {
			if leg != nil {
				legPool.Put(leg)
			}
		}
	}()
	// A dead request deadline explains every leg failing; report the
	// context (503) rather than an empty "degraded" answer.
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	rows := make([]*sparserow.Row, len(sources))
	for s := range rows {
		rows[s] = sparserow.Get()
	}
	degraded := false
	for _, leg := range legs {
		if leg == nil {
			rt.shardErrors.Add(1)
			degraded = true
			continue
		}
		rt.legBytes.Add(int64(leg.body.Len()))
		rt.legRows.Add(int64(len(sources)))
		for s, row := range rows {
			run := leg.rows.row(s)
			row.Merge(&run)
		}
	}
	return rows, degraded, nil
}

// applyEdits validates and applies the batch to the fleet source's own
// graph, then broadcasts it to every backend. Edits are idempotent at the
// graph layer, so when the broadcast reaches only part of the fleet the
// client simply retries the same batch — the shards that already applied
// it answer with no-op stats and an unchanged generation, the rest catch
// up, and the fleet converges. Until then the recorded generations
// disagree with the stale shards, which marks every touched answer
// degraded and uncacheable (the generation echo check in rows and
// gatherJoin) rather than wrong.
func (rt *fleetSource) applyEdits(ctx context.Context, edits []graph.Edit) (edgesResponse, error) {
	// Apply locally first: this validates the batch once (an out-of-range
	// edit is rejected here with the single-node error text, before any
	// backend sees it) and keeps this graph — the rerank oracle — in
	// lockstep with the fleet.
	g2, sum, err := rt.g.ApplyEdits(edits)
	if err != nil {
		return edgesResponse{}, err
	}
	req := edgesRequest{Edits: make([]edgeEdit, len(edits))}
	for i, e := range edits {
		req.Edits[i] = edgeEdit{Op: e.Op.String(), U: e.U, V: e.V}
	}

	// realChange mirrors the per-shard no-op rule: a batch that dirties no
	// vertex keeps every shard's generation (and every cached response).
	realChange := len(sum.DirtyIn) > 0 || len(sum.DirtyOut) > 0
	var (
		firstResp     *edgesResponse
		walksRepaired int
		failures      []string
	)
	for i, base := range rt.backends {
		var resp edgesResponse
		if err := rt.postShard(ctx, base, "/v1/edges", req, &resp); err != nil {
			rt.shardErrors.Add(1)
			failures = append(failures, fmt.Sprintf("%s: %v", base, err))
			// Record the generation this shard WILL reach once the batch
			// lands (generation counters advance identically for identical
			// batch streams). Until a retry converges it, the shard's
			// echoed generation trails the recorded one, so every answer
			// touching its range is marked degraded and kept out of the
			// cache instead of served as current.
			if realChange {
				rt.gens[i]++
			}
			continue
		}
		if firstResp == nil {
			firstResp = &resp
		}
		walksRepaired += resp.WalksRepaired
		rt.gens[i] = resp.Generation
	}
	rt.g = g2
	rt.renderTag()

	if len(failures) > 0 {
		return edgesResponse{}, &statusError{status: http.StatusBadGateway, msg: fmt.Sprintf(
			"edits applied to %d of %d shards (%s); retry the same batch to converge",
			len(rt.backends)-len(failures), len(rt.backends), strings.Join(failures, "; "))}
	}
	return edgesResponse{
		Added:         sum.Added,
		Removed:       sum.Removed,
		DirtyVertices: len(sum.DirtyIn),
		WalksRepaired: walksRepaired,
		Generation:    firstResp.Generation,
		Edges:         rt.g.NumEdges(),
	}, nil
}

// routerHealthzResponse is the router-mode /healthz body.
type routerHealthzResponse struct {
	Status      string   `json:"status"`
	Vertices    int      `json:"vertices"`
	Walks       int      `json:"walks"`
	Horizon     int      `json:"horizon"`
	C           float64  `json:"c"`
	Shards      int      `json:"shards"`
	Generations []uint64 `json:"generations"`
	UptimeSecs  float64  `json:"uptime_seconds"`
}

func (rt *fleetSource) healthz(uptimeSecs float64) any {
	return routerHealthzResponse{
		Status:      "ok",
		Vertices:    rt.n,
		Walks:       rt.walks,
		Horizon:     rt.horizon,
		C:           rt.c,
		Shards:      len(rt.backends),
		Generations: rt.gens,
		UptimeSecs:  uptimeSecs,
	}
}

func (rt *fleetSource) writeMetrics(w io.Writer) {
	fmt.Fprintf(w, "simrankd_shard_errors_total %d\n", rt.shardErrors.Load())
	fmt.Fprintf(w, "simrankd_shard_leg_bytes_total %d\n", rt.legBytes.Load())
	fmt.Fprintf(w, "simrankd_shard_leg_rows_total %d\n", rt.legRows.Load())
	for i, g := range rt.gens {
		fmt.Fprintf(w, "simrankd_shard_generation{shard=\"%d\"} %d\n", i, g)
	}
}

// fleetExact lazily holds the linearized solver, keyed by the graph
// pointer (every applied edit batch replaces rt.g); the mutex serializes
// concurrent first builds, and a built solver is immutable and shared.
type fleetExact struct {
	mu      sync.Mutex
	g       *graph.Graph
	solver  *linsr.Solver
	scratch *sync.Pool // of *linsr.Scratch for the cached solver
}

// exactRow solves row q over the fleet source's graph, building the solver
// first when there is none for it yet (the call that pays for that reports
// steady = false). The front end's read lock keeps rt.g stable.
func (rt *fleetSource) exactRow(ctx context.Context, q int, dst []float64) ([]float64, bool, error) {
	ex := &rt.exact
	ex.mu.Lock()
	steady := ex.solver != nil && ex.g == rt.g
	if !steady {
		sol, err := linsr.New(ctx, rt.g, linsr.Options{C: rt.c, Tol: query.ExactTol})
		if err != nil {
			ex.mu.Unlock()
			return nil, false, err
		}
		ex.solver, ex.g = sol, rt.g
		ex.scratch = &sync.Pool{New: func() any { return sol.NewScratch() }}
	}
	sol, pool := ex.solver, ex.scratch
	ex.mu.Unlock()
	sc := pool.Get().(*linsr.Scratch)
	defer pool.Put(sc)
	row, err := sol.SingleSourceScratch(ctx, q, dst, sc)
	return row, steady, err
}

// join shards the join along the fingerprint axis: backend i enumerates
// the co-located candidate pairs of fp range i, the union is taken here
// (per-shard sets are subsets of the distinct union, so the candidate cap
// keeps single-node semantics), pair scoring scatters to the owner of each
// pair's first vertex, and the shared FinishJoin tail ranks the gathered
// pairs — all merging is set union and sorting, no float arithmetic, so
// healthy answers are the single node's.
func (rt *fleetSource) join(ctx context.Context, k int, threshold float64, maxCand int) ([]query.JoinPair, bool, error) {
	if err := walkindex.CheckJoinArgs(k, threshold, maxCand); err != nil {
		return nil, false, err
	}
	pairs, degraded, err := rt.gatherJoin(ctx, threshold, maxCand)
	if err != nil {
		return nil, false, err
	}
	return walkindex.FinishJoin(pairs, k, threshold), degraded, nil
}

// gatherJoin runs the two scatter phases of a join: candidate enumeration
// over the fingerprint ranges, then exact scoring at each pair's owner.
// A backend 400 (too-dense, bad args) aborts with the backend's error; a
// failed or stale leg drops its candidates or scores and degrades the
// answer instead. Callers hold mu.RLock.
func (rt *fleetSource) gatherJoin(ctx context.Context, threshold float64, maxCand int) ([]query.JoinPair, bool, error) {
	type candRes struct {
		pairs [][2]int
		stale bool
		err   error
	}
	cands := make([]candRes, len(rt.backends))
	var wg sync.WaitGroup
	for i := range rt.backends {
		if rt.fpRanges[i].Hi <= rt.fpRanges[i].Lo {
			continue // more backends than fingerprints: empty fp range
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp shardJoinCandResponse
			err := rt.postShard(ctx, rt.backends[i], "/shard/v1/join_candidates", shardJoinCandRequest{
				Threshold:     threshold,
				FpLo:          rt.fpRanges[i].Lo,
				FpHi:          rt.fpRanges[i].Hi,
				MaxCandidates: maxCand,
			}, &resp)
			if err != nil {
				cands[i].err = err
				return
			}
			cands[i].pairs = resp.Pairs
			cands[i].stale = resp.Generation != rt.gens[i]
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}

	degraded := false
	union := make(map[uint64]struct{})
	for i := range cands {
		c := &cands[i]
		if c.err != nil {
			var se *statusError
			if errors.As(c.err, &se) && se.status == http.StatusBadRequest {
				// Deterministic rejection: every leg would answer it the
				// same way, so it is the request's answer, not a degradation.
				return nil, false, c.err
			}
			rt.shardErrors.Add(1)
			degraded = true
			continue
		}
		if c.stale {
			degraded = true
		}
		for _, p := range c.pairs {
			union[uint64(p[0])<<32|uint64(p[1])] = struct{}{}
		}
	}
	if len(union) > maxCand {
		return nil, false, walkindex.TooDenseError(threshold, maxCand)
	}

	// Scatter scoring to the owner of each pair's first vertex.
	byOwner := make([][][2]int, len(rt.backends))
	for key := range union {
		a, b := int(key>>32), int(key&0xFFFFFFFF)
		o := rt.ownerOf(a)
		byOwner[o] = append(byOwner[o], [2]int{a, b})
	}
	type scoreRes struct {
		pairs []query.JoinPair
		stale bool
		err   error
	}
	scores := make([]scoreRes, len(rt.backends))
	for i := range rt.backends {
		if len(byOwner[i]) == 0 {
			continue
		}
		// Deterministic request payloads (scores are order-independent,
		// but tidy wire traffic is easier to debug and test).
		sort.Slice(byOwner[i], func(x, y int) bool {
			if byOwner[i][x][0] != byOwner[i][y][0] {
				return byOwner[i][x][0] < byOwner[i][y][0]
			}
			return byOwner[i][x][1] < byOwner[i][y][1]
		})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp shardJoinScoreResponse
			err := rt.postShard(ctx, rt.backends[i], "/shard/v1/join_score", shardJoinScoreRequest{Pairs: byOwner[i]}, &resp)
			if err != nil {
				scores[i].err = err
				return
			}
			scores[i].pairs = resp.Pairs
			scores[i].stale = resp.Generation != rt.gens[i]
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}

	all := make([]query.JoinPair, 0, len(union)) // never nil: an empty join encodes as []
	for i := range scores {
		s := &scores[i]
		if len(byOwner[i]) == 0 {
			continue
		}
		if s.err != nil {
			rt.shardErrors.Add(1)
			degraded = true
			continue
		}
		if s.stale {
			degraded = true
		}
		all = append(all, s.pairs...)
	}
	return all, degraded, nil
}

// ownerOf returns the index of the backend owning vertex v's walk rows.
func (rt *fleetSource) ownerOf(v int) int {
	return sort.Search(len(rt.ranges), func(i int) bool { return rt.ranges[i].Hi > v })
}
