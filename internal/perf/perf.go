// Package perf implements the implementation-and-performance model of Kung
// & Lehman (1980) §8: NMOS bit-comparator area and time budgets, chip
// capacity, device-level parallelism, the intersection-latency predictions
// (~50 ms conservative, ~10 ms aggressive), and the comparison with
// moving-head-disk transfer rates. The arithmetic reproduces the paper's
// exactly; tests pin the published figures.
package perf

import (
	"fmt"
	"time"
)

// Technology is the §8 NMOS technology/device model.
type Technology struct {
	Name string

	// BitComparatorWidth/Height are the comparator cell dimensions in
	// microns ("about 240µ x 150µ in area").
	BitComparatorWidth  float64
	BitComparatorHeight float64

	// ComparisonTime is the time for one bit comparison including
	// on-chip and off-chip data transfer ("in about 350ns").
	ComparisonTime time.Duration

	// ChipSide is the chip edge length in microns ("chips are about
	// 6000µ x 6000µ in area").
	ChipSide float64

	// Chips is the number of chips in the device ("it is practical to
	// construct devices involving a few thousand chips. We assume 1000
	// chips").
	Chips int

	// PinBitsPerComparison is the number of bits multiplexable on a pin
	// during one comparison ("we can multiplex about 10 bits on a pin
	// during a single comparison"), given off-chip transfer under 30ns.
	PinBitsPerComparison int
	OffChipTransfer      time.Duration
}

// Conservative1980 is the paper's conservative estimate: 350 ns
// comparisons, 1000 chips — "which is about 50ms".
var Conservative1980 = Technology{
	Name:                 "conservative-1980",
	BitComparatorWidth:   240,
	BitComparatorHeight:  150,
	ComparisonTime:       350 * time.Nanosecond,
	ChipSide:             6000,
	Chips:                1000,
	PinBitsPerComparison: 10,
	OffChipTransfer:      30 * time.Nanosecond,
}

// Aggressive1980 is the paper's second estimate: "If we assume instead, for
// example, 200ns/comparison, and 3000 chips, we derive a figure of about
// 10ms."
var Aggressive1980 = Technology{
	Name:                 "aggressive-1980",
	BitComparatorWidth:   240,
	BitComparatorHeight:  150,
	ComparisonTime:       200 * time.Nanosecond,
	ChipSide:             6000,
	Chips:                3000,
	PinBitsPerComparison: 10,
	OffChipTransfer:      30 * time.Nanosecond,
}

// Validate checks the model parameters.
func (t Technology) Validate() error {
	if t.BitComparatorWidth <= 0 || t.BitComparatorHeight <= 0 {
		return fmt.Errorf("perf: non-positive comparator dimensions")
	}
	if t.ChipSide <= 0 {
		return fmt.Errorf("perf: non-positive chip side")
	}
	if t.ComparisonTime <= 0 {
		return fmt.Errorf("perf: non-positive comparison time")
	}
	if t.Chips <= 0 {
		return fmt.Errorf("perf: non-positive chip count")
	}
	return nil
}

// ComparatorsPerChip returns the number of bit comparators per chip:
// chip area divided by comparator area ("Division gives us about 1000
// bit-comparators per chip"). The calculation "is realistic only if the
// design is repetitively regular, which is the case for our systolic
// arrays".
func (t Technology) ComparatorsPerChip() int {
	return int(t.ChipSide * t.ChipSide / (t.BitComparatorWidth * t.BitComparatorHeight))
}

// ParallelComparisons returns the device's parallelism: comparators per
// chip times chips ("the capability of performing 10^6 comparisons in
// parallel").
func (t Technology) ParallelComparisons() int {
	return t.ComparatorsPerChip() * t.Chips
}

// Workload is the §8 "typical relation" sizing.
type Workload struct {
	TupleBits int // "A tuple is of size 1500 bits (or about 200 characters)"
	TuplesA   int // "A relation is of size 10^4 tuples"
	TuplesB   int
}

// Typical1980 is the paper's assumed workload: 1500-bit tuples, 10^4-tuple
// relations on both sides.
var Typical1980 = Workload{TupleBits: 1500, TuplesA: 10000, TuplesB: 10000}

// TotalBitComparisons returns the total work of a full pairwise
// intersection: TupleBits comparisons for each of TuplesA x TuplesB tuple
// comparisons ("a total of 1.5 x 10^11 bit comparisons").
func (w Workload) TotalBitComparisons() float64 {
	return float64(w.TupleBits) * float64(w.TuplesA) * float64(w.TuplesB)
}

// RelationBytes returns the size in bytes of relation A under this
// workload ("two relations, each of about 2 million bytes").
func (w Workload) RelationBytes() float64 {
	return float64(w.TupleBits) / 8 * float64(w.TuplesA)
}

// IntersectionTime returns the predicted time to intersect two relations:
// total bit comparisons divided by device parallelism, times the
// comparison time — the paper's
//
//	(1.5 x 10^11 comparisons) x (350ns / 10^6 comparisons) ≈ 50ms.
func (t Technology) IntersectionTime(w Workload) time.Duration {
	rounds := w.TotalBitComparisons() / float64(t.ParallelComparisons())
	return time.Duration(rounds * float64(t.ComparisonTime))
}

// Scaled returns the technology with device density scaled by the given
// factor — the §1 projection: "LSI technology allows tens of thousands of
// devices to fit on a single chip; VLSI technology promises an increase of
// this number by at least one or two orders of magnitude in the next
// decade." A density factor of d shrinks the comparator area by d (so d
// times as many comparators fit per chip); comparison time is left
// unchanged, making the projection conservative.
func (t Technology) Scaled(density float64) Technology {
	if density <= 0 {
		return t
	}
	out := t
	out.Name = fmt.Sprintf("%s-x%g", t.Name, density)
	out.BitComparatorWidth = t.BitComparatorWidth / density
	return out
}

// PulseTime converts a simulated pulse count into modelled wall-clock time:
// one pulse is one comparison interval. This ties the cycle-accurate
// simulator to the analytic model.
func (t Technology) PulseTime(pulses int) time.Duration {
	return time.Duration(pulses) * t.ComparisonTime
}

// Disk is the §8 moving-head disk model.
type Disk struct {
	RPM                int // "a moving-head disk rotates at about 3600 r.p.m."
	BytesPerRevolution int // "a rate of about 500,000 bytes in 17ms" (cylinder-per-revolution reads)
}

// Disk1980 is the paper's disk.
var Disk1980 = Disk{RPM: 3600, BytesPerRevolution: 500000}

// RevolutionTime returns the rotation period ("about once every 17ms").
func (d Disk) RevolutionTime() time.Duration {
	if d.RPM <= 0 {
		return 0
	}
	return time.Duration(float64(time.Minute) / float64(d.RPM))
}

// TransferRate returns bytes per second assuming an entire cylinder is
// read each revolution, "as in some of the proposed database machines".
func (d Disk) TransferRate() float64 {
	rt := d.RevolutionTime().Seconds()
	if rt == 0 {
		return 0
	}
	return float64(d.BytesPerRevolution) / rt
}

// TimeToRead returns the time to stream the given number of bytes.
func (d Disk) TimeToRead(bytes float64) time.Duration {
	rate := d.TransferRate()
	if rate == 0 {
		return 0
	}
	return time.Duration(bytes / rate * float64(time.Second))
}

// KeepsUpWithDisk reports whether the systolic device can process relations
// as fast as the disk delivers them — §8's claim that "the processing speed
// obtainable from these systolic arrays can keep up with the data rate
// achievable with the fast mass storage devices". The device is said to
// keep up when its intersection time for the workload is within the given
// slack factor of the disk time to deliver both relations.
func KeepsUpWithDisk(t Technology, d Disk, w Workload, slack float64) bool {
	diskTime := d.TimeToRead(w.RelationBytes() + float64(w.TupleBits)/8*float64(w.TuplesB))
	return t.IntersectionTime(w) <= time.Duration(slack*float64(diskTime))
}
