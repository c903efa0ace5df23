package bitlevel

import (
	"fmt"
	"strings"
	"testing"

	"systolicdb/internal/relation"
)

// TestWidthErrorsUniform pins the uniformity this change introduced:
// Expand and Collapse reject out-of-range widths with the same error text,
// and that text names the supported maximum.
func TestWidthErrorsUniform(t *testing.T) {
	for _, width := range []int{0, -1, MaxWidth + 1, 1000} {
		want := fmt.Sprintf("bitlevel: width %d out of range [1,%d]", width, MaxWidth)
		if _, err := Expand(relation.Tuple{1}, width); err == nil || err.Error() != want {
			t.Errorf("Expand(width=%d) error = %v, want %q", width, err, want)
		}
		if _, err := Collapse(relation.Tuple{1}, width); err == nil || err.Error() != want {
			t.Errorf("Collapse(width=%d) error = %v, want %q", width, err, want)
		}
	}
	// MaxWidth itself is in range and round-trips.
	big := relation.Tuple{1<<MaxWidth - 1}
	bits, err := Expand(big, MaxWidth)
	if err != nil {
		t.Fatalf("Expand at MaxWidth: %v", err)
	}
	back, err := Collapse(bits, MaxWidth)
	if err != nil {
		t.Fatalf("Collapse at MaxWidth: %v", err)
	}
	if back[0] != big[0] {
		t.Errorf("round trip at MaxWidth: got %d, want %d", back[0], big[0])
	}
}

// TestMinWidthCeiling pins that an element beyond the 62-bit ceiling is
// rejected at planning time, with an error naming the maximum, rather than
// surfacing later from Expand.
func TestMinWidthCeiling(t *testing.T) {
	w, err := MinWidth([]relation.Tuple{{1<<MaxWidth - 1}})
	if err != nil || w != MaxWidth {
		t.Errorf("MinWidth(max element) = %d, %v; want %d, nil", w, err, MaxWidth)
	}
	_, err = MinWidth([]relation.Tuple{{relation.Element(1) << MaxWidth}})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(MaxWidth)) {
		t.Errorf("MinWidth(over-ceiling element) error = %v, want mention of %d", err, MaxWidth)
	}
	if _, err := MinWidth([]relation.Tuple{{-5}}); err == nil {
		t.Error("MinWidth accepted a negative element")
	}
	if w, err := MinWidth(nil); err != nil || w != 1 {
		t.Errorf("MinWidth() = %d, %v; want 1, nil", w, err)
	}
}

// MinWidth returns the smallest bit width that can represent every element
// of the given tuples (at least 1). An element too wide for MaxWidth is
// rejected here, not at a later Expand call, so the caller learns the
// ceiling at planning time.
func MinWidth(ts ...[]relation.Tuple) (int, error) {
	var maxE relation.Element
	for _, list := range ts {
		for _, t := range list {
			for _, e := range t {
				if e < 0 {
					return 0, fmt.Errorf("bitlevel: negative element %d not representable", e)
				}
				if e > maxE {
					maxE = e
				}
			}
		}
	}
	// Bound the search by MaxWidth: 1<<w overflows Element at w = 63, which
	// would otherwise loop forever on an element past the ceiling.
	w := 1
	for w <= MaxWidth && maxE >= 1<<uint(w) {
		w++
	}
	if w > MaxWidth {
		return 0, fmt.Errorf("bitlevel: element %d needs more than the supported maximum of %d bits", maxE, MaxWidth)
	}
	return w, nil
}
