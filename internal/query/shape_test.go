package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestWithChildrenRoundTrip checks the shape table over the random-plan
// generator: at every node of every plan, rebuilding the node over its own
// children formats identically (nothing but the operands is touched), and
// rebuilding it over other operands changes the operands and nothing else.
// The generator must have exercised all nine node types by the end.
func TestWithChildrenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1601))
	seen := make(map[string]bool)
	leaf := Scan{Name: "Z"}
	var walk func(n Node)
	walk = func(n Node) {
		seen[fmt.Sprintf("%T", n)] = true
		want, err := Format(n)
		if err != nil {
			t.Fatalf("format %s: %v", Render(n), err)
		}
		kids := Children(n)
		same := WithChildren(n, kids...)
		if got, err := Format(same); err != nil || got != want {
			t.Fatalf("WithChildren(n, Children(n)...) = %q (%v), want %q", got, err, want)
		}
		if !reflect.DeepEqual(same, n) {
			t.Fatalf("WithChildren(n, Children(n)...) = %#v, want %#v", same, n)
		}
		if len(kids) > 0 {
			swapped := make([]Node, len(kids))
			for i := range swapped {
				swapped[i] = leaf
			}
			re := WithChildren(n, swapped...)
			if !reflect.DeepEqual(Children(re), swapped) {
				t.Fatalf("WithChildren over new operands kept %v", Children(re))
			}
			if re.label() != n.label() || reflect.TypeOf(re) != reflect.TypeOf(n) {
				t.Fatalf("WithChildren changed the operator: %s -> %s", n.label(), re.label())
			}
			// The original is a value: rebuilding must not have touched it.
			if got, _ := Format(n); got != want {
				t.Fatalf("WithChildren mutated its argument: %q -> %q", want, got)
			}
		}
		for _, k := range kids {
			walk(k)
		}
	}
	for trial := 0; trial < 1000; trial++ {
		walk(genPlan(rng, 1+rng.Intn(3)))
	}
	for _, typ := range []Node{Scan{}, Intersect{}, Difference{}, Union{}, Dedup{}, Project{}, Join{}, Divide{}, Select{}} {
		if name := fmt.Sprintf("%T", typ); !seen[name] {
			t.Errorf("generator never produced a %s", name)
		}
	}
}
