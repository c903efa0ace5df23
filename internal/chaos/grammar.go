package chaos

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Field is one key of a spec grammar, bound to the spec value it reads and
// writes. Seed, Prob and Dur build the common ones; a layer writes a Field
// literal for value syntax only it has (latency=D±J, at=ORD:KIND).
type Field struct {
	Key   string
	Usage string                 // value placeholder in the flag help: "P", "DUR[±DUR]"
	Parse func(val string) error // stores one occurrence (a repeatable key appends)
	// Check validates the stored value; nil when every value is valid.
	// Specs are also filled by hand, so it cannot rely on Parse.
	Check  func() error
	Render func() []string // canonical value per occurrence; none at the default
	inert  bool            // configures the campaign but injects nothing (the seed)
}

// If is the Render result of a single-valued field: val when set.
func If(set bool, val string) []string {
	if !set {
		return nil
	}
	return []string{val}
}

// Seed is the determinism seed every grammar carries.
func Seed(v *int64) Field {
	return Field{Key: "seed", Usage: "N", inert: true,
		Parse:  func(s string) (err error) { *v, err = strconv.ParseInt(s, 10, 64); return err },
		Render: func() []string { return If(*v != 0, strconv.FormatInt(*v, 10)) },
	}
}

// Prob is a firing probability in [0, 1].
func Prob(key string, v *float64) Field {
	return Field{Key: key, Usage: "P",
		Parse: func(s string) (err error) { *v, err = strconv.ParseFloat(s, 64); return err },
		Check: func() error {
			// Written so that NaN fails: ParseFloat accepts "NaN", no ordered
			// comparison holds for it, Threshold(NaN) is implementation-
			// defined and String would omit it.
			if !(*v >= 0 && *v <= 1) {
				return fmt.Errorf("probability %v outside [0, 1]", *v)
			}
			return nil
		},
		Render: func() []string { return If(*v > 0, strconv.FormatFloat(*v, 'g', -1, 64)) },
	}
}

// Dur is a non-negative duration.
func Dur(key string, v *time.Duration) Field {
	return Field{Key: key, Usage: "DUR",
		Parse: func(s string) (err error) { *v, err = time.ParseDuration(s); return err },
		Check: func() error {
			if *v < 0 {
				return fmt.Errorf("negative duration %v", *v)
			}
			return nil
		},
		Render: func() []string { return If(*v > 0, v.String()) },
	}
}

// Grammar is a spec format: comma-separated key=value options drawn from
// Fields and printed back in Fields order. Layer prefixes every error.
type Grammar struct {
	Layer  string
	Fields []Field
}

// Parse stores every option of spec through its field, without validating
// (callers follow it with their Validate). Surrounding space and empty
// elements are skipped, but a spec with no option at all is an error: an
// empty flag is a mistake, not a no-op. A repeated single-valued key keeps
// its last value.
func (g Grammar) Parse(spec string) error {
	empty := true
	for _, kv := range strings.Split(spec, ",") {
		if kv = strings.TrimSpace(kv); kv == "" {
			continue
		}
		empty = false
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("%s: option %q is not key=value", g.Layer, kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		i := slices.IndexFunc(g.Fields, func(f Field) bool { return f.Key == key })
		if i < 0 {
			return fmt.Errorf("%s: unknown option %q", g.Layer, key)
		}
		if err := g.Fields[i].Parse(val); err != nil {
			return fmt.Errorf("%s: bad %s %q: %v", g.Layer, key, val, err)
		}
	}
	if empty {
		return fmt.Errorf("%s: empty spec", g.Layer)
	}
	return nil
}

// Validate runs every field's Check.
func (g Grammar) Validate() error {
	for _, f := range g.Fields {
		if f.Check == nil {
			continue
		}
		if err := f.Check(); err != nil {
			return fmt.Errorf("%s: %s: %v", g.Layer, f.Key, err)
		}
	}
	return nil
}

// String renders the canonical spec: fields in declaration order, each
// omitted at its default, so equal specs print equal strings.
func (g Grammar) String() string {
	var opts []string
	for _, f := range g.Fields {
		for _, v := range f.Render() {
			opts = append(opts, f.Key+"="+v)
		}
	}
	return strings.Join(opts, ",")
}

// Quiet reports whether the spec injects nothing at all.
func (g Grammar) Quiet() bool {
	for _, f := range g.Fields {
		if !f.inert && len(f.Render()) > 0 {
			return false
		}
	}
	return true
}

// Usage lists the keys as "key=USAGE,key=USAGE" for one-line flag help.
func (g Grammar) Usage() string {
	keys := make([]string, len(g.Fields))
	for i, f := range g.Fields {
		keys[i] = f.Key + "=" + f.Usage
	}
	return strings.Join(keys, ",")
}
