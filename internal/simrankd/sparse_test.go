package simrankd

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"oipsr/internal/sparserow"
)

// TestWalkBodyMatchesDenseBody pins the front end's threshold filter — and
// the one body that is written out dense — against the dense encoder, byte
// for byte, over seeded random rows. min <= 0 is the trap: it admits every
// absent vertex at score 0, so the sparse body is n-1 results long; NaN
// admits nothing; q is present, absent (its owner's leg failed), or the only
// non-zero; a missing shard range is an interval without entries.
func TestWalkBodyMatchesDenseBody(t *testing.T) {
	s := benchServer(t)
	n := s.n
	rng := rand.New(rand.NewSource(26))
	scores := []float64{0.5, 0.25, 0.25, 0.01, 1e-300}
	mins := []float64{math.NaN(), -1, 0, math.Copysign(0, -1), 1e-300, 0.01, 0.25, 1}
	for trial := 0; trial < 300; trial++ {
		dense := make([]float64, n)
		q := rng.Intn(n)
		holeLo := rng.Intn(n + 1)
		holeHi := holeLo + rng.Intn(n+1-holeLo)*rng.Intn(2)
		switch trial % 4 {
		case 0: // all zero
		case 1:
			dense[q] = 1
		default:
			for i := rng.Intn(n); i > 0; i-- {
				if v := rng.Intn(n); v < holeLo || v >= holeHi {
					dense[v] = scores[rng.Intn(len(scores))]
				}
			}
			if trial%4 == 2 {
				dense[q] = 1
			}
		}
		row := sparserow.Get()
		row.AppendDense(0, dense)
		for _, degraded := range []bool{false, true} {
			want, err := s.singleSourceBody(q, dense, false, 0, degraded)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.walkSingleSourceBody(q, row, false, 0, degraded)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("dense body (err %v):\n got %s\nwant %s", err, got, want)
			}
			for _, m := range mins {
				want, err := s.singleSourceBody(q, dense, true, m, degraded)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.walkSingleSourceBody(q, row, true, m, degraded)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("min=%v q=%d (err %v):\n got %s\nwant %s", m, q, err, got, want)
				}
			}
		}
		sparserow.Release(row)
	}
}

// TestBodiesNeverAliasPooledRows: rows go back to their pool the moment a
// body is encoded, and are refilled by whichever request comes next. A
// cached or streamed body that still pointed into one would change under
// its reader — so many clients miss, hit and re-miss through a cache too
// small for the working set, on both row sources, and every body they ever
// receive must be the one a quiet, uncached server gives. Run under -race.
func TestBodiesNeverAliasPooledRows(t *testing.T) {
	forEachBackend(t, func(t *testing.T, kind string) {
		ref := smallBackend(t, kind, Config{CacheSize: -1, Workers: 1})
		srv := smallBackend(t, kind, Config{CacheSize: 6, Workers: 2})
		type probe struct{ method, path, body string }
		var probes []probe
		for q := 0; q < 24; q++ {
			probes = append(probes,
				probe{"GET", fmt.Sprintf("/v1/single_source?q=%d&min=0.01", q), ""},
				probe{"GET", fmt.Sprintf("/v1/single_source?q=%d&min=0", q), ""},
				probe{"GET", fmt.Sprintf("/v1/single_source?q=%d", q), ""},
				probe{"GET", fmt.Sprintf("/v1/topk?q=%d&k=10", q), ""},
				probe{"POST", "/v1/batch", fmt.Sprintf(`{"mode":"topk","sources":[%d,%d,%d],"k":5}`, q, q+30, q+60)},
				probe{"POST", "/v1/batch", fmt.Sprintf(`{"mode":"single_source","sources":[%d,%d],"min":0.02}`, q, q+50)},
			)
		}
		serve := func(h http.Handler, p probe) []byte {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(p.method, p.path, strings.NewReader(p.body)))
			if rec.Code != http.StatusOK {
				t.Errorf("%s %s: status %d %s", p.method, p.path, rec.Code, rec.Body)
			}
			return rec.Body.Bytes()
		}
		want := make([][]byte, len(probes))
		for i, p := range probes {
			want[i] = serve(ref, p)
		}
		var wg sync.WaitGroup
		for c := 0; c < 6; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(c)))
				for i := 0; i < 150; i++ {
					j := rng.Intn(len(probes))
					if got := serve(srv, probes[j]); !bytes.Equal(got, want[j]) {
						t.Errorf("%s %s %s under concurrency:\n got %s\nwant %s", probes[j].method, probes[j].path, probes[j].body, got, want[j])
						return
					}
				}
			}(c)
		}
		wg.Wait()
	})
}
