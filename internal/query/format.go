package query

import (
	"fmt"
	"strings"

	"systolicdb/internal/cells"
)

// Format renders a plan in the exact textual algebra Parse accepts, so a
// plan can round-trip through text: Parse(Format(n)) rebuilds n. This is
// what lets the cluster coordinator ship rewritten sub-plans to shard
// daemons over the wire — Render is for human logs (it elides join specs),
// Format is for machines.
func Format(n Node) (string, error) {
	var sb strings.Builder
	if err := format(&sb, n); err != nil {
		return "", err
	}
	return sb.String(), nil
}

func format(sb *strings.Builder, n Node) error {
	switch op := n.(type) {
	case Scan:
		if !validScanName(op.Name) {
			return fmt.Errorf("query: relation name %q cannot be formatted as plan text", op.Name)
		}
		fmt.Fprintf(sb, "scan(%s)", op.Name)
		return nil
	case Intersect:
		return formatPair(sb, "intersect", op.L, op.R, "")
	case Difference:
		return formatPair(sb, "difference", op.L, op.R, "")
	case Union:
		return formatPair(sb, "union", op.L, op.R, "")
	case Dedup:
		sb.WriteString("dedup(")
		if err := format(sb, op.Child); err != nil {
			return err
		}
		sb.WriteString(")")
		return nil
	case Project:
		if len(op.Cols) == 0 {
			return fmt.Errorf("query: project with no columns cannot be formatted")
		}
		sb.WriteString("project(")
		if err := format(sb, op.Child); err != nil {
			return err
		}
		for _, c := range op.Cols {
			fmt.Fprintf(sb, ", %d", c)
		}
		sb.WriteString(")")
		return nil
	case Join:
		name := "join"
		if !op.Spec.IsEqui() {
			name = "theta"
		}
		if len(op.Spec.ACols) == 0 || len(op.Spec.ACols) != len(op.Spec.BCols) {
			return fmt.Errorf("query: join spec with %d/%d column pairs cannot be formatted",
				len(op.Spec.ACols), len(op.Spec.BCols))
		}
		var spec strings.Builder
		for k := range op.Spec.ACols {
			o := cells.EQ
			if op.Spec.Ops != nil {
				o = op.Spec.Ops[k]
			}
			fmt.Fprintf(&spec, ", %d%s%d", op.Spec.ACols[k], o, op.Spec.BCols[k])
		}
		return formatPair(sb, name, op.L, op.R, spec.String())
	case Divide:
		if len(op.AQuot) == 0 || len(op.ADiv) == 0 || len(op.BCols) == 0 {
			return fmt.Errorf("query: divide without quot/div/by groups cannot be formatted")
		}
		spec := fmt.Sprintf(", quot=%s, div=%s, by=%s",
			joinInts(op.AQuot), joinInts(op.ADiv), joinInts(op.BCols))
		return formatPair(sb, "divide", op.L, op.R, spec)
	case Select:
		if len(op.Query) == 0 {
			return fmt.Errorf("query: select with no predicates cannot be formatted")
		}
		sb.WriteString("select(")
		if err := format(sb, op.Child); err != nil {
			return err
		}
		for _, p := range op.Query {
			fmt.Fprintf(sb, ", %d%s%d", p.Col, p.Op, int64(p.Value))
		}
		sb.WriteString(")")
		return nil
	}
	return fmt.Errorf("query: unsupported plan node %T", n)
}

func formatPair(sb *strings.Builder, name string, l, r Node, spec string) error {
	sb.WriteString(name)
	sb.WriteString("(")
	if err := format(sb, l); err != nil {
		return err
	}
	sb.WriteString(", ")
	if err := format(sb, r); err != nil {
		return err
	}
	sb.WriteString(spec)
	sb.WriteString(")")
	return nil
}

// joinInts renders a column group as the parser's "+"-separated list.
func joinInts(cols []int) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return strings.Join(parts, "+")
}

// validScanName reports whether the parser's ident production accepts name.
func validScanName(name string) bool {
	if name == "" {
		return false
	}
	for _, c := range name {
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			return false
		}
	}
	return true
}
