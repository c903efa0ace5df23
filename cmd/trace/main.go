// Command trace renders ASCII data-movement pictures of the systolic
// arrays, reproducing Figure 3-4 ("Data moving through the comparison
// array"), Figure 4-1 (the intersection array in action) and Figure 7-2
// (the division array in operation).
//
// Usage:
//
//	trace -array comparison          # the paper's 3x3 comparison example
//	trace -array intersection       # comparison + accumulation modules
//	trace -array division           # the Fig 7-1/7-2 worked example
//	trace -array comparison -from 2 -to 6
package main

import (
	"flag"
	"fmt"
	"os"

	"systolicdb/internal/comparison"
	"systolicdb/internal/division"
	"systolicdb/internal/intersect"
	"systolicdb/internal/relation"
	"systolicdb/internal/trace"
)

func main() {
	array := flag.String("array", "comparison", "array to trace: comparison | intersection | division")
	from := flag.Int("from", 0, "first pulse to render")
	to := flag.Int("to", -1, "one past the last pulse to render (-1 = all)")
	flag.Parse()

	rec := &trace.Recorder{}
	var err error
	switch *array {
	case "comparison":
		err = traceComparison(rec)
	case "intersection":
		err = traceIntersection(rec)
	case "division":
		err = traceDivision(rec)
	default:
		err = fmt.Errorf("unknown array %q", *array)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}

	end := rec.Pulses()
	if *to >= 0 && *to < end {
		end = *to
	}
	if err := rec.RenderRange(os.Stdout, *from, end); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
}

// figure33Relations returns the 3x3 relations of Figures 3-3/3-4.
func figure33Relations() ([]relation.Tuple, []relation.Tuple) {
	a := []relation.Tuple{{11, 12, 13}, {21, 22, 23}, {31, 32, 33}}
	b := []relation.Tuple{{21, 22, 23}, {41, 42, 43}, {11, 12, 13}}
	return a, b
}

func traceComparison(rec *trace.Recorder) error {
	a, b := figure33Relations()
	res, err := comparison.Run2D(a, b, nil, nil, rec)
	if err != nil {
		return err
	}
	fmt.Printf("two-dimensional comparison array, |A|=3 |B|=3 m=3 (Figure 3-3/3-4)\n")
	fmt.Printf("legend: vX = element of A moving down, ^X = element of B moving up,\n")
	fmt.Printf("        >T/>F = partial comparison result moving right\n")
	fmt.Printf("result matrix T: %v\n\n", res.T.Bits)
	return nil
}

func traceIntersection(rec *trace.Recorder) error {
	a, b := figure33Relations()
	bits, _, err := intersect.RunAccumulated(a, b, nil, rec)
	if err != nil {
		return err
	}
	fmt.Printf("intersection array: comparison module (cols 0-2) + accumulation column (col 3) (Figure 4-1)\n")
	fmt.Printf("membership bits t_i: %v\n\n", bits)
	return nil
}

func traceDivision(rec *trace.Recorder) error {
	// The Figure 7-1 example with x ∈ {i=0, j=1, k=2}, y ∈ {a=0..d=3}.
	pairs := []division.Pair{
		{Z: 0, Y: 0}, {Z: 0, Y: 1}, {Z: 1, Y: 0}, {Z: 0, Y: 2}, {Z: 1, Y: 1},
		{Z: 2, Y: 0}, {Z: 0, Y: 3}, {Z: 2, Y: 1}, {Z: 2, Y: 2}, {Z: 2, Y: 3},
	}
	xs := []relation.Element{0, 1, 2}
	divisor := []relation.Element{0, 1, 2, 3}
	bits, _, err := division.RunArray(pairs, xs, divisor, rec)
	if err != nil {
		return err
	}
	fmt.Printf("division array: dividend columns (0: stored x, 1: y gate) + divisor row (cols 2-5) (Figure 7-2)\n")
	fmt.Printf("x encoding: i=0 j=1 k=2; y encoding: a=0 b=1 c=2 d=3\n")
	fmt.Printf("quotient bits per stored x: %v (paper: i and k qualify)\n\n", bits)
	return nil
}
