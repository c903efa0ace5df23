package hex

import (
	"math/rand"
	"testing"
	"testing/quick"

	"systolicdb/internal/relation"
)

func mat(rows ...[]int64) [][]relation.Element {
	out := make([][]relation.Element, len(rows))
	for i, r := range rows {
		row := make([]relation.Element, len(r))
		for j := range r {
			row[j] = relation.Element(r[j])
		}
		out[i] = row
	}
	return out
}

func equalMat(a, b [][]relation.Element) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestMultiplyIdentity(t *testing.T) {
	a := mat([]int64{1, 2}, []int64{3, 4})
	id := mat([]int64{1, 0}, []int64{0, 1})
	c, _, err := Multiply(a, id)
	if err != nil {
		t.Fatal(err)
	}
	if !equalMat(c, a) {
		t.Errorf("A*I = %v, want %v", c, a)
	}
	c2, _, err := Multiply(id, a)
	if err != nil {
		t.Fatal(err)
	}
	if !equalMat(c2, a) {
		t.Errorf("I*A = %v, want %v", c2, a)
	}
}

func TestMultiplyKnown(t *testing.T) {
	a := mat([]int64{1, 2}, []int64{3, 4})
	b := mat([]int64{5, 6}, []int64{7, 8})
	c, st, err := Multiply(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := mat([]int64{19, 22}, []int64{43, 50})
	if !equalMat(c, want) {
		t.Errorf("C = %v, want %v", c, want)
	}
	if st.MACs != 8 { // n^3 multiply-accumulates for dense 2x2
		t.Errorf("MACs = %d, want 8", st.MACs)
	}
}

func TestMultiplyRandomAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(6)
		mk := func() [][]relation.Element {
			m := make([][]relation.Element, n)
			for i := range m {
				m[i] = make([]relation.Element, n)
				for j := range m[i] {
					m[i][j] = relation.Element(rng.Int63n(9) - 4)
				}
			}
			return m
		}
		a, b := mk(), mk()
		c, _, err := Multiply(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !equalMat(c, Reference(a, b)) {
			t.Errorf("trial %d: hex product differs from reference\nA=%v\nB=%v\ngot=%v\nwant=%v",
				trial, a, b, c, Reference(a, b))
		}
	}
}

func TestBandMatrixSkipsZeros(t *testing.T) {
	// A tridiagonal (band) matrix: the token count — and therefore the
	// MAC count — must scale with the band, not with n³ (the [5] claim).
	n := 8
	band := make([][]relation.Element, n)
	for i := range band {
		band[i] = make([]relation.Element, n)
		for j := range band[i] {
			if abs(i-j) <= 1 {
				band[i][j] = relation.Element(i + j + 1)
			}
		}
	}
	c, st, err := Multiply(band, band)
	if err != nil {
		t.Fatal(err)
	}
	if !equalMat(c, Reference(band, band)) {
		t.Error("band product wrong")
	}
	dense := n * n * n
	if st.MACs >= dense/2 {
		t.Errorf("band multiply performed %d MACs; should be far below dense %d", st.MACs, dense)
	}
}

func TestMultiplyValidation(t *testing.T) {
	if _, _, err := Multiply(nil, nil); err == nil {
		t.Error("empty matrices not rejected")
	}
	if _, _, err := Multiply(mat([]int64{1, 2}), mat([]int64{1})); err == nil {
		t.Error("non-square A not rejected")
	}
	if _, _, err := Multiply(mat([]int64{1}), mat([]int64{1, 2}, []int64{3, 4})); err == nil {
		t.Error("dimension mismatch not rejected")
	}
}

func TestScheduleRendezvous(t *testing.T) {
	// Direct check of the closed-form schedule: for every (i,j,k) the
	// three start positions plus T·d land on the same cell at T=i+j+k.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 4; k++ {
				T := i + j + k
				pa := Coord{-2*i - k, i - k}
				pb := Coord{2*j + k, -j - 2*k}
				pc := Coord{j - i, 2*i + j}
				for s := 0; s < T; s++ {
					pa = pa.Add(East)
					pb = pb.Add(SouthWest)
					pc = pc.Add(North)
				}
				want := Coord{j - i, i - k}
				if pa != want || pb != want || pc != want {
					t.Fatalf("(%d,%d,%d): a=%v b=%v c=%v, want all %v", i, j, k, pa, pb, pc, want)
				}
			}
		}
	}
}

func TestDirections(t *testing.T) {
	// The three stream directions sum to zero (120° apart).
	sum := Coord{0, 0}.Add(East).Add(SouthWest).Add(North)
	if sum != (Coord{0, 0}) {
		t.Errorf("stream directions do not cancel: %v", sum)
	}
}

func TestMultiplyQuickProperty(t *testing.T) {
	f := func(raw [9]int8, raw2 [9]int8) bool {
		a := make([][]relation.Element, 3)
		b := make([][]relation.Element, 3)
		for i := 0; i < 3; i++ {
			a[i] = make([]relation.Element, 3)
			b[i] = make([]relation.Element, 3)
			for j := 0; j < 3; j++ {
				a[i][j] = relation.Element(raw[3*i+j])
				b[i][j] = relation.Element(raw2[3*i+j])
			}
		}
		c, _, err := Multiply(a, b)
		if err != nil {
			return false
		}
		return equalMat(c, Reference(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
