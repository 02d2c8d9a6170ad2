package main

// loadgen.go is the closed-loop HTTP load generator: each client sends its
// next op when the previous one has completed, with no think time, over
// one persistent connection.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// request is an op rendered for the wire, built before any timer starts.
type request struct {
	method, path string
	body         []byte
}

func renderOp(o op) request {
	q := strconv.Itoa(int(o.q))
	switch o.kind {
	case opSingleSource:
		return request{method: http.MethodGet, path: "/v1/single_source?q=" + q + "&min=0.01"}
	case opTopK:
		return request{method: http.MethodGet, path: "/v1/topk?q=" + q + "&k=10"}
	case opTopKRerank:
		return request{method: http.MethodGet, path: "/v1/topk?q=" + q + "&k=10&rerank=1"}
	case opBatch:
		body, _ := json.Marshal(map[string]any{"mode": "topk", "k": 10, "sources": o.sources})
		return request{method: http.MethodPost, path: "/v1/batch", body: body}
	default:
		type wireEdit struct {
			Op string `json:"op"`
			U  int32  `json:"u"`
			V  int32  `json:"v"`
		}
		edits := make([]wireEdit, len(o.edits))
		for i, e := range o.edits {
			edits[i] = wireEdit{Op: "add", U: e.u, V: e.v}
			if e.remove {
				edits[i].Op = "remove"
			}
		}
		body, _ := json.Marshal(map[string]any{"edits": edits})
		return request{method: http.MethodPost, path: "/v1/edges", body: body}
	}
}

func renderOps(ops []op) []request {
	out := make([]request, len(ops))
	for i, o := range ops {
		out[i] = renderOp(o)
	}
	return out
}

// client owns one persistent connection and a reusable body buffer.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response. The returned body
// aliases the client's buffer and is valid until the next call.
func (c *client) do(base string, r request) (status int, hdr http.Header, body []byte, err error) {
	var rd io.Reader
	if r.body != nil {
		rd = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, base+r.path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header, c.buf.Bytes(), err
}

// checkResponse says why a response counts as a failed op: anything but a
// 200, a degraded or shed answer, a batch with a missing or failed line,
// an edit batch that did not take full effect.
func checkResponse(o op, status int, hdr http.Header, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", o.kind, status, firstLine(body))
	}
	if hdr.Get("X-Simrank-Degraded") != "" || bytes.Contains(body, []byte(`"degraded":true`)) {
		return fmt.Errorf("%s q=%d: degraded answer", o.kind, o.q)
	}
	switch o.kind {
	case opBatch:
		if lines := bytes.Count(body, []byte("\n")); lines != len(o.sources) {
			return fmt.Errorf("batch: %d lines for %d sources", lines, len(o.sources))
		}
		if bytes.Contains(body, []byte(`"error"`)) {
			return fmt.Errorf("batch: error line: %s", firstLine(body))
		}
	case opEdges:
		var resp struct{ Added, Removed int }
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("edges: %v", err)
		}
		if resp.Added != editAdds || resp.Removed != editRemove {
			return fmt.Errorf("edges: %d added, %d removed, want %d and %d", resp.Added, resp.Removed, editAdds, editRemove)
		}
	default:
		if want := `{"query":` + strconv.Itoa(int(o.q)) + `,`; !bytes.HasPrefix(body, []byte(want)) {
			return fmt.Errorf("%s q=%d: unexpected body: %s", o.kind, o.q, firstLine(body))
		}
	}
	return nil
}

func firstLine(b []byte) string {
	s := string(b)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

// loadResult is what one closed-loop phase observed.
type loadResult struct {
	primary, second []time.Duration // latencies of successful ops
	attempted       int
	failed          int
	firstFailure    error
	respBytes       int64
	wall            time.Duration
}

// runClosedLoop plays perClient[c] from client c, all clients starting
// together, and returns when every client has finished its sequence.
func runClosedLoop(base string, clients []*client, perClient [][]op) loadResult {
	reqs := make([][]request, len(perClient))
	for c, ops := range perClient {
		reqs[c] = renderOps(ops)
	}
	results := make([]loadResult, len(perClient))
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	for c := range perClient {
		ready.Add(1)
		done.Add(1)
		go func(c int) {
			defer done.Done()
			res := &results[c]
			res.primary = make([]time.Duration, 0, len(perClient[c]))
			ready.Done()
			<-start
			for i, o := range perClient[c] {
				t0 := time.Now()
				status, hdr, body, err := clients[c].do(base, reqs[c][i])
				d := time.Since(t0)
				if err == nil {
					err = checkResponse(o, status, hdr, body)
				}
				res.attempted++
				res.respBytes += int64(len(body))
				if err != nil {
					res.failed++
					if res.firstFailure == nil {
						res.firstFailure = err
					}
					continue
				}
				if o.second() {
					res.second = append(res.second, d)
				} else {
					res.primary = append(res.primary, d)
				}
			}
		}(c)
	}
	ready.Wait()
	t0 := time.Now()
	close(start)
	done.Wait()
	total := loadResult{wall: time.Since(t0)}
	for _, r := range results {
		total.primary = append(total.primary, r.primary...)
		total.second = append(total.second, r.second...)
		total.attempted += r.attempted
		total.failed += r.failed
		total.respBytes += r.respBytes
		if total.firstFailure == nil {
			total.firstFailure = r.firstFailure
		}
	}
	return total
}

// scrapeMetrics reads a simrankd /metrics page into name -> value;
// labelled series keep their label text in the name.
func scrapeMetrics(c *client, base string) (map[string]float64, error) {
	status, _, body, err := c.do(base, request{method: http.MethodGet, path: "/metrics"})
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// servedTopK asks base for the raw (not reranked) top-k of q.
func servedTopK(c *client, base string, q, k int) ([]int, error) {
	path := fmt.Sprintf("/v1/topk?q=%d&k=%d", q, k)
	status, _, body, err := c.do(base, request{method: http.MethodGet, path: path})
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, status, firstLine(body))
	}
	var resp struct {
		Results []struct{ Vertex int }
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return rankedVertices(resp.Results, func(r struct{ Vertex int }) int { return r.Vertex }), nil
}
