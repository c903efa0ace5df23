package perf

import (
	"testing"
	"time"
)

func TestComparatorsPerChipMatchesPaper(t *testing.T) {
	// §8: "Division gives us about 1000 bit-comparators per chip."
	if got := Conservative1980.ComparatorsPerChip(); got != 1000 {
		t.Errorf("comparators per chip = %d, paper says 1000", got)
	}
}

func TestParallelComparisonsMatchesPaper(t *testing.T) {
	// §8: "This gives us the capability of performing 10^6 comparisons
	// in parallel."
	if got := Conservative1980.ParallelComparisons(); got != 1_000_000 {
		t.Errorf("parallel comparisons = %d, paper says 10^6", got)
	}
}

func TestTotalBitComparisonsMatchesPaper(t *testing.T) {
	// §8: "The intersection requires a total of 1.5 x 10^11 bit
	// comparisons."
	if got := Typical1980.TotalBitComparisons(); got != 1.5e11 {
		t.Errorf("total bit comparisons = %g, paper says 1.5e11", got)
	}
}

func TestIntersectionTimeConservative(t *testing.T) {
	// §8: "(1.5 x 10^11 comparisons) x (350ns / 10^6 comparisons), which
	// is about 50ms." The exact product is 52.5ms.
	got := Conservative1980.IntersectionTime(Typical1980)
	if got != 52500*time.Microsecond {
		t.Errorf("conservative intersection time = %v, want 52.5ms", got)
	}
}

func TestIntersectionTimeAggressive(t *testing.T) {
	// §8: "If we assume instead, for example, 200ns/comparison, and 3000
	// chips, we derive a figure of about 10ms."
	got := Aggressive1980.IntersectionTime(Typical1980)
	if got != 10*time.Millisecond {
		t.Errorf("aggressive intersection time = %v, paper says about 10ms", got)
	}
}

func TestDiskRevolutionMatchesPaper(t *testing.T) {
	// §8: "a moving-head disk rotates at about 3600 r.p.m., or about
	// once every 17ms."
	rt := Disk1980.RevolutionTime()
	if rt < 16*time.Millisecond || rt > 17*time.Millisecond {
		t.Errorf("revolution time = %v, paper says about 17ms", rt)
	}
}

func TestRelationSizeMatchesPaper(t *testing.T) {
	// §8: "two relations, each of about 2 million bytes."
	mb := Typical1980.RelationBytes() / 1e6
	if mb < 1.5 || mb > 2.5 {
		t.Errorf("relation size = %.2f MB, paper says about 2 MB", mb)
	}
}

func TestKeepsUpWithDisk(t *testing.T) {
	// §8's qualitative claim: the array processes two ~2MB relations "in
	// a comparable period of time" to the disk's delivery. Conservative
	// hardware is within ~1/2 order of magnitude; aggressive hardware is
	// within ~1x.
	if !KeepsUpWithDisk(Aggressive1980, Disk1980, Typical1980, 1.0) {
		t.Error("aggressive 1980 hardware does not keep up with the disk at slack 1.0")
	}
	if !KeepsUpWithDisk(Conservative1980, Disk1980, Typical1980, 1.0) {
		t.Error("conservative 1980 hardware does not keep up with the disk at slack 1.0")
	}
}

func TestNotPinLimited(t *testing.T) {
	// §8: "the time for a comparison is large relative to off-chip
	// transfer time (<30ns)".
	if Conservative1980.PinLimited() {
		t.Error("conservative technology reported pin-limited")
	}
	if Aggressive1980.PinLimited() {
		t.Error("aggressive technology reported pin-limited")
	}
}

func TestPulseTime(t *testing.T) {
	if got := Conservative1980.PulseTime(100); got != 35*time.Microsecond {
		t.Errorf("100 pulses = %v, want 35µs", got)
	}
}

func TestValidate(t *testing.T) {
	if err := Conservative1980.Validate(); err != nil {
		t.Errorf("conservative model invalid: %v", err)
	}
	bad := Conservative1980
	bad.Chips = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero chips not rejected")
	}
	bad = Conservative1980
	bad.ComparisonTime = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero comparison time not rejected")
	}
	bad = Conservative1980
	bad.ChipSide = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative chip side not rejected")
	}
	bad = Conservative1980
	bad.BitComparatorWidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero comparator width not rejected")
	}
}

func TestScaledDensity(t *testing.T) {
	// §1 projection: 10x density, 10x comparators/chip, 10x faster
	// intersection.
	tenX := Conservative1980.Scaled(10)
	if got := tenX.ComparatorsPerChip(); got != 10_000 {
		t.Errorf("10x density comparators/chip = %d, want 10000", got)
	}
	w := Typical1980
	ratio := float64(Conservative1980.IntersectionTime(w)) / float64(tenX.IntersectionTime(w))
	if ratio < 9.9 || ratio > 10.1 {
		t.Errorf("10x density speedup = %.2f, want ~10", ratio)
	}
	// Degenerate density leaves the technology unchanged.
	same := Conservative1980.Scaled(0)
	if same.ComparatorsPerChip() != Conservative1980.ComparatorsPerChip() {
		t.Error("non-positive density should be a no-op")
	}
	if tenX.Name == Conservative1980.Name {
		t.Error("scaled technology should carry a distinct name")
	}
}

func TestChipSizing(t *testing.T) {
	// A 100-row x 10-column word array at 100 bits/word needs 1e5 bit
	// comparators = 100 chips at 1000 comparators/chip.
	comparators := ComparatorsForArray(100, 10, 100)
	if comparators != 100_000 {
		t.Errorf("comparators = %d, want 100000", comparators)
	}
	if got := Conservative1980.ChipsFor(comparators); got != 100 {
		t.Errorf("chips = %d, want 100", got)
	}
	// Rounding up.
	if got := Conservative1980.ChipsFor(1001); got != 2 {
		t.Errorf("chips for 1001 comparators = %d, want 2", got)
	}
	if Conservative1980.ChipsFor(0) != 0 || ComparatorsForArray(0, 1, 1) != 0 {
		t.Error("degenerate sizing should be 0")
	}
	// The paper's flagship device: 1000 chips hosts 10^6 comparators —
	// enough for e.g. a 667-row array of 1500-bit tuple comparators.
	if !Conservative1980.DeviceFits(666, 1, 1500) {
		t.Error("666 rows of 1500-bit comparators should fit 1000 chips")
	}
	if Conservative1980.DeviceFits(2000, 1, 1500) {
		t.Error("3e6 comparators should not fit 1000 chips")
	}
}

func TestBuildReport(t *testing.T) {
	r := BuildReport(Conservative1980, Disk1980, Typical1980)
	if r.ComparatorsPerChip != 1000 || r.ParallelComparisons != 1_000_000 {
		t.Errorf("report chip figures wrong: %+v", r)
	}
	if r.DiskRateMBps < 25 || r.DiskRateMBps > 35 {
		t.Errorf("disk rate = %.1f MB/s, expected ~30 (500KB per 17ms)", r.DiskRateMBps)
	}
}

func TestDegenerateDisk(t *testing.T) {
	var d Disk
	if d.RevolutionTime() != 0 || d.TransferRate() != 0 || d.TimeToRead(100) != 0 {
		t.Error("zero-valued disk should report zeros, not panic or divide by zero")
	}
}

// PinLimited reports whether pin bandwidth would throttle the comparators:
// the paper argues it does not, "since the time for a comparison is large
// relative to off-chip transfer time (<30ns)".
func (t Technology) PinLimited() bool {
	return t.ComparisonTime < t.OffChipTransfer
}

// ComparatorsForArray returns the number of bit comparators a physical
// comparison array of the given shape requires: rows x cols word
// processors, each partitioned into width bit processors (§8's word→bit
// transformation).
func ComparatorsForArray(rows, cols, width int) int {
	if rows <= 0 || cols <= 0 || width <= 0 {
		return 0
	}
	return rows * cols * width
}

// ChipsFor returns the number of chips needed to host the given number of
// bit comparators under this technology, rounding up.
func (t Technology) ChipsFor(comparators int) int {
	per := t.ComparatorsPerChip()
	if per <= 0 || comparators <= 0 {
		return 0
	}
	return (comparators + per - 1) / per
}

// DeviceFits reports whether an array shape fits on this technology's
// device ("it is practical to construct devices involving a few thousand
// chips").
func (t Technology) DeviceFits(rows, cols, width int) bool {
	return t.ChipsFor(ComparatorsForArray(rows, cols, width)) <= t.Chips
}

// Report is a line-item rendering of the §8 arithmetic for a technology and
// workload.
type Report struct {
	Technology          string
	ComparatorsPerChip  int
	ParallelComparisons int
	TotalBitComparisons float64
	IntersectionTime    time.Duration
	RelationMB          float64
	DiskRevolution      time.Duration
	DiskRateMBps        float64
}

// BuildReport evaluates the full §8 model.
func BuildReport(t Technology, d Disk, w Workload) Report {
	return Report{
		Technology:          t.Name,
		ComparatorsPerChip:  t.ComparatorsPerChip(),
		ParallelComparisons: t.ParallelComparisons(),
		TotalBitComparisons: w.TotalBitComparisons(),
		IntersectionTime:    t.IntersectionTime(w),
		RelationMB:          w.RelationBytes() / 1e6,
		DiskRevolution:      d.RevolutionTime(),
		DiskRateMBps:        d.TransferRate() / 1e6,
	}
}
