package machine

import "fmt"

// Backend selects the execution engine device operations run on.
type Backend int

const (
	// BackendPulse is the cycle-faithful pulse simulator: every operation
	// runs cell by cell on the systolic grids of §3-§7, tiled to the
	// device capacity per §8, with the fault layer's injection,
	// verification and retry applied per tile. This is the zero value and
	// the historical behaviour.
	BackendPulse Backend = iota

	// BackendBitset is the word-parallel backend (internal/bitset): each
	// operation evaluates whole wavefronts of the boolean matrix T with
	// uint64 lanes — §8's word→bit-level transformation run at machine
	// word width. Results are bit-for-bit identical to BackendPulse; cost
	// is reported in word operations instead of pulses, and the fault
	// layer does not apply (there are no simulated cells to corrupt).
	BackendBitset
)

// String returns the flag-level name of the backend.
func (b Backend) String() string {
	switch b {
	case BackendPulse:
		return "pulse"
	case BackendBitset:
		return "bitset"
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

func (b Backend) valid() bool { return b == BackendPulse || b == BackendBitset }

// ParseBackend maps a flag or request string to a Backend. The empty
// string selects the default (pulse); anything unknown is an error, never
// a silent fallback.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "pulse":
		return BackendPulse, nil
	case "bitset":
		return BackendBitset, nil
	}
	return 0, fmt.Errorf("machine: unknown backend %q (valid: pulse, bitset)", s)
}
