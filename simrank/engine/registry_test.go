package engine_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"oipsr/graph/gen"
	"oipsr/simrank"
	"oipsr/simrank/engine"
)

// TestEveryEngineRoundTripsThroughCompute is the registry gate: every
// registered engine with all-pairs capability must dispatch through
// simrank.Compute and produce a sane score matrix (unit diagonal up to its
// model/tolerance, scores in [0,1] up to rounding) — no engine may register
// without being reachable from the public seam.
func TestEveryEngineRoundTripsThroughCompute(t *testing.T) {
	g := gen.WebGraph(40, 5, 3)
	n := g.NumVertices()
	names := engine.Names()
	if len(names) < 7 {
		t.Fatalf("expected at least 7 registered engines, got %v", names)
	}
	for _, alg := range names {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			e, ok := engine.Get(alg)
			if !ok {
				t.Fatalf("Get(%q) missed an engine returned by Names", alg)
			}
			if !e.Caps().AllPairs {
				t.Skipf("%s does not materialize all-pairs scores", alg)
			}
			opt := simrank.Options{Algorithm: alg, C: 0.6, Workers: 2}
			switch alg {
			case simrank.MtxSR:
				// Full rank recovers the matrix-form model exactly; lower
				// ranks carry uncontrolled truncation error on digraphs.
				opt.Rank = n
			case simrank.MonteCarlo:
				opt.Walks = 200
				opt.Seed = 5
			}
			s, st, err := simrank.Compute(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if st.Algorithm != alg {
				t.Errorf("Stats.Algorithm = %q, want %q", st.Algorithm, alg)
			}
			// The free-diagonal models (oip-dsr's differential exponential
			// form, mtx-sr's matrix form) do not pin s(a,a) = 1; every
			// other engine must. Everything must be a similarity score,
			// and a vertex is always positively similar to itself.
			pinnedDiag := alg != simrank.MtxSR && alg != simrank.OIPDSR
			for i := 0; i < n; i++ {
				row := s.Row(i)
				if pinnedDiag && math.Abs(row[i]-1) > 1e-6 {
					t.Fatalf("s(%d,%d) = %g, want ~1", i, i, row[i])
				}
				if row[i] <= 0 {
					t.Fatalf("s(%d,%d) = %g, want > 0", i, i, row[i])
				}
				for j, v := range row {
					if v < -1e-9 || v > 1+1e-9 {
						t.Fatalf("s(%d,%d) = %g outside [0,1]", i, j, v)
					}
				}
			}
			s.Close()
		})
	}
}

// TestValidDerivesFromRegistry: Algorithm.Valid is registry membership,
// nothing else.
func TestValidDerivesFromRegistry(t *testing.T) {
	for _, alg := range engine.Names() {
		if !alg.Valid() {
			t.Errorf("registered %q reports Valid() == false", alg)
		}
	}
	if engine.Algorithm("no-such-engine").Valid() {
		t.Error(`Valid("no-such-engine") == true`)
	}
	if engine.Algorithm("").Valid() {
		t.Error(`Valid("") == true`)
	}
}

// TestNameList feeds CLI help text; it must contain every registered name
// exactly once, sorted.
func TestNameList(t *testing.T) {
	list := engine.NameList(" | ")
	parts := strings.Split(list, " | ")
	names := engine.Names()
	if len(parts) != len(names) {
		t.Fatalf("NameList has %d entries, registry %d: %q", len(parts), len(names), list)
	}
	for i, alg := range names {
		if parts[i] != string(alg) {
			t.Errorf("NameList[%d] = %q, want %q", i, parts[i], alg)
		}
		if i > 0 && !(names[i-1] < alg) {
			t.Errorf("Names not sorted: %q before %q", names[i-1], alg)
		}
	}
}

// TestUnknownAlgorithmError pins the public error text the registry
// refactor must not change.
func TestUnknownAlgorithmError(t *testing.T) {
	g := gen.WebGraph(10, 3, 1)
	_, _, err := simrank.Compute(g, simrank.Options{Algorithm: "bogus"})
	if err == nil || err.Error() != `simrank: unknown algorithm "bogus"` {
		t.Fatalf("err = %v", err)
	}
	_, _, err = simrank.Compute(g, simrank.Options{Algorithm: simrank.MtxSR, BlockSize: 4})
	if err == nil || err.Error() != `simrank: the tiled backend (BlockSize > 0) does not support algorithm "mtx-sr"` {
		t.Fatalf("tiled mtx-sr err = %v", err)
	}
}

// TestDuplicateRegistrationPanics: engine names are API surface; silent
// override would repoint CLI flags and HTTP parameters.
func TestDuplicateRegistrationPanics(t *testing.T) {
	e, _ := engine.Get(simrank.Naive)
	defer func() {
		if recover() == nil {
			t.Error("Register(duplicate) did not panic")
		}
	}()
	engine.Register(e)
}

// TestCancelledLinearizedCompute: the one ctx-aware engine must surface
// cancellation through ComputeContext.
func TestCancelledLinearizedCompute(t *testing.T) {
	g := gen.WebGraph(60, 5, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := simrank.ComputeContext(ctx, g, simrank.Options{Algorithm: simrank.Linearized})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
