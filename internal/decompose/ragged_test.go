package decompose

import (
	"strings"
	"testing"

	"systolicdb/internal/cells"
	"systolicdb/internal/relation"
)

// TestTilerRaggedInputsRejected pins the guards on the §8 tiler's raw
// tuple-list entry points. Without them a ragged list would reach the
// host-reference closure (comparison.ReferenceT), which indexes tuples
// unconditionally and panics on short ones; they must reject ragged input
// up front instead.
func TestTilerRaggedInputsRejected(t *testing.T) {
	tl := Tiler{Size: ArraySize{MaxA: 4, MaxB: 4}}
	even := []relation.Tuple{{1, 2}, {3, 4}}
	ragged := []relation.Tuple{{1, 2}, {3}}

	if _, _, err := tl.T(ragged, even, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "ragged") {
		t.Errorf("T ragged A: error = %v, want ragged rejection", err)
	}
	if _, _, err := tl.T(even, ragged, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "mismatch") {
		t.Errorf("T ragged B: error = %v, want width-mismatch rejection", err)
	}
	if _, _, err := tl.Accumulate(ragged, even, nil); err == nil {
		t.Error("Accumulate ragged A: no error")
	}
	if _, _, err := tl.Accumulate(even, ragged, nil); err == nil {
		t.Error("Accumulate ragged B: no error")
	}
	ops := []cells.Op{cells.EQ, cells.EQ}
	if _, _, err := tl.T(ragged, even, ops, nil); err == nil ||
		!strings.Contains(err.Error(), "key tuple width") {
		t.Errorf("T ragged A keys: error = %v, want key-width rejection", err)
	}
	if _, _, err := tl.T(even, []relation.Tuple{{1}}, ops, nil); err == nil {
		t.Error("T narrow B keys: no error")
	}

	// Empty sides keep their early-return semantics: answerable without
	// inspecting widths, so no error even against ragged input.
	if _, _, err := tl.T(nil, ragged, nil, nil); err != nil {
		t.Errorf("T empty A: %v", err)
	}
	if bits, _, err := tl.Accumulate(nil, ragged, nil); err != nil || len(bits) != 0 {
		t.Errorf("Accumulate empty A: bits=%v err=%v", bits, err)
	}
	if _, _, err := tl.T(nil, ragged, ops, nil); err != nil {
		t.Errorf("T empty A with keys: %v", err)
	}
}
