package linsr

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"oipsr/graph"
	"oipsr/graph/gen"
)

// heldContext is a live context whose first Err call blocks until release
// is closed, after closing entered: handed to a build, it holds the
// diagonal solve at its first cancellation poll.
type heldContext struct {
	context.Context
	once             sync.Once
	entered, release chan struct{}
}

func (c *heldContext) Err() error {
	c.once.Do(func() {
		close(c.entered)
		<-c.release
	})
	return c.Context.Err()
}

// TestLazyBuildsOncePerVersion: concurrent first calls share one build,
// every answer is the plain solver's bit for bit, only calls that found the
// solver built report held, and another version (generation or graph)
// builds anew and replaces it.
func TestLazyBuildsOncePerVersion(t *testing.T) {
	g := gen.WebGraph(80, 5, 3)
	opt := Options{C: 0.6, Tol: 1e-10}
	ref := mustSolver(t, g, opt)
	want, err := ref.SingleSource(context.Background(), 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	var l Lazy
	if _, ok := l.Stats(0, g); ok {
		t.Fatal("a fresh Lazy reports a solver")
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	solvers := map[*Solver]bool{}
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sol, _, err := l.Solver(context.Background(), 0, g, opt)
			if err != nil {
				t.Error(err)
				return
			}
			row, _, err := l.SingleSource(context.Background(), 0, g, opt, 7, nil)
			if err != nil || !slices.Equal(row, want) {
				t.Errorf("row differs from the plain solver's (err %v)", err)
			}
			mu.Lock()
			solvers[sol] = true
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(solvers) != 1 {
		t.Fatalf("%d solvers built for one version, want 1", len(solvers))
	}
	if _, held, _ := l.Solver(context.Background(), 0, g, opt); !held {
		t.Fatal("a built solver is not reported held")
	}
	if st, ok := l.Stats(0, g); !ok || st.SolveIters != ref.Stats().SolveIters || st.Residual != ref.Stats().Residual {
		t.Fatalf("Stats = %+v, %t; the plain solver's %+v", st, ok, ref.Stats())
	}

	g2 := gen.WebGraph(80, 5, 4)
	for _, v := range []struct {
		gen uint64
		g   *graph.Graph
	}{{1, g}, {1, g2}} {
		if _, ok := l.Stats(v.gen, v.g); ok {
			t.Fatalf("version (%d, %p) reported built before any call", v.gen, v.g)
		}
		if _, held, err := l.Solver(context.Background(), v.gen, v.g, opt); err != nil || held {
			t.Fatalf("version (%d, %p): held %t, err %v, want a new build", v.gen, v.g, held, err)
		}
		if _, ok := l.Stats(0, g); ok {
			t.Fatal("the replaced version is still reported")
		}
	}
}

// TestLazyWaiterKeepsItsDeadline: while one call's build is held, Stats
// answers at once and another caller returns its own context's error when
// its deadline passes; a build that fails (its context cancelled) leaves
// nothing held, and the next call builds.
func TestLazyWaiterKeepsItsDeadline(t *testing.T) {
	g := gen.WebGraph(60, 5, 9)
	opt := Options{C: 0.6, Tol: 1e-10}
	var l Lazy
	held := &heldContext{Context: context.Background(), entered: make(chan struct{}), release: make(chan struct{})}
	built := make(chan error, 1)
	go func() { _, _, err := l.Solver(held, 0, g, opt); built <- err }()
	<-held.entered

	if _, ok := l.Stats(0, g); ok {
		t.Error("Stats reports a solver while the build is held")
	}
	const deadline, slack = 20 * time.Millisecond, 2 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	t0 := time.Now()
	done := make(chan error, 1)
	go func() { _, _, err := l.SingleSource(ctx, 0, g, opt, 3, nil); done <- err }()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("waiter: err = %v, want context.DeadlineExceeded", err)
		} else if el := time.Since(t0); el > deadline+slack/2 {
			t.Errorf("waiter returned %v after its %v deadline", el, deadline)
		}
	case <-time.After(slack):
		t.Errorf("waiter with a %v deadline still waits after %v", deadline, slack)
	}
	close(held.release)
	if err := <-built; err != nil {
		t.Fatal(err)
	}

	// A failed build holds nothing.
	var l2 Lazy
	dead, kill := context.WithCancel(context.Background())
	kill()
	if _, _, err := l2.Solver(dead, 0, g, opt); err == nil {
		t.Fatal("a build under a cancelled context succeeded")
	}
	if _, ok := l2.Stats(0, g); ok {
		t.Fatal("a failed build left a solver behind")
	}
	if _, held, err := l2.Solver(context.Background(), 0, g, opt); err != nil || held {
		t.Fatalf("after a failed build: held %t, err %v, want a fresh build", held, err)
	}
}
