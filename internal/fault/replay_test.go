package fault

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"systolicdb/internal/relation"
	"systolicdb/internal/systolic"
)

// emitter is a cell that puts a true flag on its east port every pulse, so
// any fired fault is visible in the wrapped cell's output.
type emitter struct{}

func (emitter) Step(_ *systolic.Inputs, out *systolic.Outputs) {
	out.E = systolic.FlagToken(true, systolic.Tag{Valid: true})
}
func (emitter) Reset() {}

// TestAbsoluteReplay pins the values the fault layer derives from its hash
// chain against the stored table (two injectors built by the same binary
// always agree, so only a table can notice the chain itself moving): which
// cell-pulses of an 8×8 grid fire over 16 pulses of two successive runs,
// the retry backoff jitter, and the relation checksum — whose parity is
// persisted in WAL records and must never change.
func TestAbsoluteReplay(t *testing.T) {
	for _, spec := range []string{"flip:rate=0.05,seed=42", "flaky:rate=0.2,seed=-7"} {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		inj, err := NewInjector(p)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for run := 0; run < 2; run++ {
			wrap := inj.NewRun()
			var fired [16]uint64 // per pulse, bit row*8+col
			for row := 0; row < 8; row++ {
				for col := 0; col < 8; col++ {
					cell := wrap(row, col, emitter{})
					for pulse := range fired {
						var out systolic.Outputs
						cell.Step(&systolic.Inputs{}, &out)
						if !out.E.HasFlag || !out.E.Flag {
							fired[pulse] |= 1 << (row*8 + col)
						}
					}
				}
			}
			for _, w := range fired {
				got = append(got, fmt.Sprintf("%016x", w))
			}
		}
		golden(t, "fault "+spec, got)
	}

	for _, seed := range []int64{1, -99} {
		var got []string
		for n := 1; n <= 6; n++ {
			got = append(got, RetryPolicy{Seed: seed}.Delay(n).String())
		}
		golden(t, fmt.Sprintf("fault retry seed=%d", seed), got)
	}

	names := relation.DictDomain("names")
	rel := relation.MustRelation(relation.MustSchema(
		relation.Column{Name: "id", Domain: relation.IntDomain("int")},
		relation.Column{Name: "name", Domain: names},
	), nil)
	for i, s := range []string{"carol", "alice", "bob"} {
		code, err := names.EncodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := rel.Append(relation.Tuple{relation.Element(i), code}); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := RelationChecksum(rel)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fault relation checksum", []string{fmt.Sprintf("%d/%#x", sum.Count, sum.Parity)})
}

// golden checks one named sequence against the absolute-replay table
// internal/chaos/testdata/replay.json, captured at the commit before the
// fault layers shared internal/chaos. A sequence that differs is never
// fixed by editing the table.
func golden(t *testing.T, name string, got []string) {
	t.Helper()
	data, err := os.ReadFile("../chaos/testdata/replay.json")
	if err != nil {
		t.Fatal(err)
	}
	var table map[string]string
	if err := json.Unmarshal(data, &table); err != nil {
		t.Fatal(err)
	}
	if g := strings.Join(got, " "); g != table[name] {
		t.Fatalf("%s: replay differs from the golden table\n got: %s\nwant: %s", name, g, table[name])
	}
}
