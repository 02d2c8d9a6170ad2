package simmat

import "testing"

func TestBasicOps(t *testing.T) {
	m := New(3)
	if m.N() != 3 {
		t.Fatalf("N = %d, want 3", m.N())
	}
	m.Set(1, 2, 0.5)
	if m.At(1, 2) != 0.5 {
		t.Error("Set/At mismatch")
	}
	m.Add(1, 2, 0.25)
	if m.At(1, 2) != 0.75 {
		t.Error("Add mismatch")
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 0.75 {
		t.Errorf("Row = %v", row)
	}
	row[0] = 9 // aliasing contract
	if m.At(1, 0) != 9 {
		t.Error("Row must alias storage")
	}
	if m.Bytes() != 72 {
		t.Errorf("Bytes = %d, want 72", m.Bytes())
	}
}

func TestIdentityCopyReset(t *testing.T) {
	m := NewIdentity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("identity[%d,%d] = %g", i, j, m.At(i, j))
			}
		}
	}
	c := m.Copy()
	c.Set(0, 0, 5)
	if m.At(0, 0) != 1 {
		t.Error("Copy must not share storage")
	}
	m.Reset()
	if m.At(0, 0) != 0 {
		t.Error("Reset failed")
	}
	m.Fill(2)
	if m.At(3, 3) != 2 {
		t.Error("Fill failed")
	}
}

func TestMaxDiff(t *testing.T) {
	a, b := New(2), New(2)
	a.Set(0, 1, 1)
	b.Set(0, 1, 0.25)
	b.Set(1, 0, -0.5)
	if d := MaxDiff(a, b); d != 0.75 {
		t.Errorf("MaxDiff = %g, want 0.75", d)
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic on dimension mismatch")
		}
	}()
	MaxDiff(a, New(3))
}
