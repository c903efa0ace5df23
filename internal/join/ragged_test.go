package join

import (
	"strings"
	"testing"

	"systolicdb/internal/cells"
	"systolicdb/internal/relation"
)

// TestRunTRaggedKeysRejected pins the guard this change added: RunT used
// to panic indexing a short key tuple; it must now reject ragged key lists
// with an explicit error, the way the intersection and comparison drivers
// always have.
func TestRunTRaggedKeysRejected(t *testing.T) {
	ops := []cells.Op{cells.EQ, cells.EQ}
	even := []relation.Tuple{{1, 2}, {3, 4}}
	ragged := []relation.Tuple{{1, 2}, {3}}
	wide := []relation.Tuple{{1, 2, 3}}

	for _, tc := range []struct {
		name string
		a, b []relation.Tuple
	}{
		{"ragged A", ragged, even},
		{"ragged B", even, ragged},
		{"A wider than ops", wide, even},
		{"B narrower than ops", even, []relation.Tuple{{1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := RunT(tc.a, tc.b, ops); err == nil ||
				!strings.Contains(err.Error(), "key tuple width") {
				t.Errorf("RunT(%s) error = %v, want key-width rejection", tc.name, err)
			}
		})
	}

	// The empty-side early return still wins over validation, matching the
	// other drivers: an empty side is answerable without looking at widths.
	if _, _, err := RunT(nil, ragged, ops); err != nil {
		t.Errorf("empty A with ragged B: %v, want nil error", err)
	}
}
