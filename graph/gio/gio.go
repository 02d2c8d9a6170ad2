// Package gio reads and writes graphs in the plain edge-list format used by
// SNAP-style datasets (the paper loads BERKSTAN and PATENT from such files).
//
// Edge-list format: one "src dst" pair of decimal vertex ids per line,
// whitespace separated. Lines starting with '#' or '%' are comments. Blank
// lines are ignored. Vertex ids must be non-negative; the graph spans
// [0, max id] unless a larger vertex count is forced with ReadEdgeListN.
package gio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"oipsr/graph"
)

// ReadEdgeList parses an edge list from r and builds a graph.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	return readEdgeList(r, 0, 0)
}

// ReadEdgeListN is ReadEdgeList but guarantees at least n vertices in the
// result, which matters for datasets with trailing isolated vertices.
func ReadEdgeListN(r io.Reader, n int) (*graph.Graph, error) {
	return readEdgeList(r, n, 0)
}

// ReadEdgeListLimit is ReadEdgeList with a hard cap on vertex ids: any edge
// naming an id >= maxVertices is rejected with an error instead of growing
// the graph. Use it on untrusted inputs, where a single adversarial line
// like "0 99999999999999" would otherwise force an absurd allocation
// before any semantic validation can run.
func ReadEdgeListLimit(r io.Reader, maxVertices int) (*graph.Graph, error) {
	if maxVertices <= 0 {
		return nil, fmt.Errorf("gio: vertex limit %d, want > 0", maxVertices)
	}
	return readEdgeList(r, 0, maxVertices)
}

func readEdgeList(r io.Reader, n, maxVertices int) (*graph.Graph, error) {
	b := graph.NewBuilder(n, 0)
	b.EnsureVertices(n)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("gio: line %d: want \"src dst\", got %q", lineno, line)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("gio: line %d: bad source id %q: %v", lineno, fields[0], err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("gio: line %d: bad destination id %q: %v", lineno, fields[1], err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("gio: line %d: negative vertex id", lineno)
		}
		if maxVertices > 0 && (u >= maxVertices || v >= maxVertices) {
			return nil, fmt.Errorf("gio: line %d: vertex id %d exceeds limit %d", lineno, max(u, v), maxVertices)
		}
		b.AddEdge(u, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gio: reading edge list: %w", err)
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// WriteEdgeList writes g as an edge list with a header comment recording the
// vertex and edge counts.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# vertices: %d edges: %d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	var werr error
	g.Edges(func(u, v int) bool {
		_, werr = fmt.Fprintf(bw, "%d %d\n", u, v)
		return werr == nil
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// LoadEdgeListFile reads an edge-list file from disk.
func LoadEdgeListFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(bufio.NewReader(f))
}
