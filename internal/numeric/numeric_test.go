package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLambertW0KnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0},
		{math.E, 1},              // W(e) = 1
		{2 * math.E * math.E, 2}, // W(2e^2) = 2
		{-1 / math.E, -1},        // branch point
		{1, 0.5671432904097838},  // the omega constant
		{10, 1.7455280027406994},
		{100, 3.3856301402900502},
	}
	for _, c := range cases {
		got := LambertW0(c.x)
		if math.Abs(got-c.want) > 1e-12*(1+math.Abs(c.want)) {
			t.Errorf("LambertW0(%g) = %.16g, want %.16g", c.x, got, c.want)
		}
	}
}

func TestLambertW0OutOfDomain(t *testing.T) {
	if !math.IsNaN(LambertW0(-0.5)) {
		t.Error("want NaN left of -1/e")
	}
	if !math.IsNaN(LambertW0(math.NaN())) {
		t.Error("want NaN for NaN input")
	}
	if !math.IsInf(LambertW0(math.Inf(1)), 1) {
		t.Error("want +Inf for +Inf input")
	}
}

// TestLambertW0Inverse checks the defining identity W(x)*e^(W(x)) = x across
// the domain, the property-based contract of the implementation.
func TestLambertW0Inverse(t *testing.T) {
	f := func(raw float64) bool {
		// Map raw into a wide domain sample: [-1/e, 1e8].
		x := math.Mod(math.Abs(raw), 1e8)
		if math.IsNaN(x) {
			return true
		}
		x -= float64(1 / math.E * math.Mod(math.Abs(raw), 1.0))
		if x < -1/math.E {
			x = -1 / math.E
		}
		w := LambertW0(x)
		back := float64(w * math.Exp(w))
		return math.Abs(back-x) <= 1e-10*(1+math.Abs(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestLambertW0Monotone(t *testing.T) {
	prev := LambertW0(-1 / math.E)
	for x := -0.36; x < 50; x += 0.037 {
		w := LambertW0(x)
		if w < prev-1e-12 {
			t.Fatalf("W not monotone at x=%g: %g < %g", x, w, prev)
		}
		prev = w
	}
}

func TestFactorial(t *testing.T) {
	want := []float64{1, 1, 2, 6, 24, 120, 720, 5040}
	for k, w := range want {
		if got := Factorial(k); got != w {
			t.Errorf("Factorial(%d) = %g, want %g", k, got, w)
		}
	}
}

func TestFactorialPanicsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for Factorial(-1)")
		}
	}()
	Factorial(-1)
}

// TestWorkedExampleSection4 reproduces the closed-form example at the end of
// Section IV: C = 0.8, eps = 1e-4 gives K' = 7 for the differential model
// versus K = 41 for the conventional model.
func TestWorkedExampleSection4(t *testing.T) {
	if k := IterationsConventional(0.8, 1e-4); k != 41 {
		t.Errorf("conventional K = %d, want 41", k)
	}
	if k, ok := IterationsDifferentialLog(0.8, 1e-4); !ok || k != 7 {
		t.Errorf("log-estimate K' = %d (ok=%v), want 7", k, ok)
	}
	if k := IterationsDifferentialLambert(0.8, 1e-4); k != 7 {
		t.Errorf("Lambert-estimate K' = %d, want 7", k)
	}
}

// TestFig6fColumns reproduces the estimator columns of Fig. 6f (C = 0.8).
func TestFig6fColumns(t *testing.T) {
	epss := []float64{1e-2, 1e-3, 1e-4, 1e-5, 1e-6}
	wantExact := []int{4, 5, 6, 7, 8}   // OIP-DSR column
	wantLambert := []int{4, 5, 7, 8, 9} // LamW Est. column
	wantLog := []int{-1, 5, 7, 9, 10}   // Log Est. column (-1: not valid)
	for i, eps := range epss {
		if got := IterationsDifferentialExact(0.8, eps); got != wantExact[i] {
			t.Errorf("exact iterations at eps=%g: %d, want %d", eps, got, wantExact[i])
		}
		if got := IterationsDifferentialLambert(0.8, eps); got != wantLambert[i] {
			t.Errorf("Lambert estimate at eps=%g: %d, want %d", eps, got, wantLambert[i])
		}
		got, ok := IterationsDifferentialLog(0.8, eps)
		if wantLog[i] == -1 {
			if ok {
				t.Errorf("log estimate at eps=%g should be invalid, got %d", eps, got)
			}
		} else if !ok || got != wantLog[i] {
			t.Errorf("log estimate at eps=%g: %d (ok=%v), want %d", eps, got, ok, wantLog[i])
		}
	}
}

// TestEstimatorsSufficient checks the estimators really achieve the target
// accuracy: running the estimated number of iterations brings the exact tail
// bound at or below eps.
func TestEstimatorsSufficient(t *testing.T) {
	for _, c := range []float64{0.4, 0.6, 0.8, 0.9} {
		for _, eps := range []float64{1e-2, 1e-3, 1e-4, 1e-6, 1e-8} {
			k := IterationsDifferentialLambert(c, eps)
			if b := ExponentialTailBound(c, k); b > eps {
				t.Errorf("C=%g eps=%g: Lambert K'=%d leaves bound %g > eps", c, eps, k, b)
			}
			if k2, ok := IterationsDifferentialLog(c, eps); ok {
				if b := ExponentialTailBound(c, k2); b > eps {
					t.Errorf("C=%g eps=%g: log K'=%d leaves bound %g > eps", c, eps, k2, b)
				}
			}
			kc := IterationsConventional(c, eps)
			if b := GeometricTailBound(c, kc); b > eps {
				t.Errorf("C=%g eps=%g: conventional K=%d leaves bound %g > eps", c, eps, kc, b)
			}
			if kc > 0 {
				if b := GeometricTailBound(c, kc-1); b <= eps {
					t.Errorf("C=%g eps=%g: conventional K=%d not minimal (K-1 bound %g <= eps)", c, eps, kc, b)
				}
			}
		}
	}
}

// TestExponentialBeatsGeometric verifies the headline claim of Section IV:
// the exponential model needs far fewer iterations at high accuracy.
func TestExponentialBeatsGeometric(t *testing.T) {
	for _, eps := range []float64{1e-3, 1e-4, 1e-5, 1e-6} {
		kGeo := IterationsConventional(0.8, eps)
		kExp := IterationsDifferentialExact(0.8, eps)
		if kExp*3 > kGeo {
			t.Errorf("eps=%g: exponential needs %d vs geometric %d, want >=3x fewer", eps, kExp, kGeo)
		}
	}
}

func TestTailBoundsMonotone(t *testing.T) {
	for k := 0; k < 30; k++ {
		if GeometricTailBound(0.8, k+1) >= GeometricTailBound(0.8, k) {
			t.Fatalf("geometric bound not decreasing at k=%d", k)
		}
		if ExponentialTailBound(0.8, k+1) >= ExponentialTailBound(0.8, k) {
			t.Fatalf("exponential bound not decreasing at k=%d", k)
		}
		if ExponentialTailBound(0.8, k) > GeometricTailBound(0.8, k) {
			t.Fatalf("exponential bound exceeds geometric at k=%d", k)
		}
	}
	if ExponentialTailBound(0.8, 200) != 0 {
		t.Error("overflow guard should clamp huge k to 0")
	}
}

func TestIterationsPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { IterationsConventional(1.2, 0.1) },
		func() { IterationsConventional(0.5, 2) },
		func() { IterationsDifferentialExact(0, 0.1) },
		func() { IterationsDifferentialExact(0.5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic for invalid parameters")
				}
			}()
			fn()
		}()
	}
}
