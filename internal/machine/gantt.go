package machine

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Validate checks the physical consistency of a transaction schedule: every
// event well-formed, every event booked on a resource the machine actually
// has (when Resources is populated, as machine.Run always does), and no
// resource (device or disk) executing two operations at once. The scheduler
// maintains these invariants by construction; Validate lets callers and
// tests verify them independently.
func (r *Result) Validate() error {
	var known map[string]bool
	if len(r.Resources) > 0 {
		known = make(map[string]bool, len(r.Resources))
		for _, name := range r.Resources {
			known[name] = true
		}
	}
	byResource := make(map[string][]Event)
	for _, ev := range r.Events {
		if ev.End < ev.Start {
			return fmt.Errorf("machine: event %q ends at %v before its start %v", ev.Task, ev.End, ev.Start)
		}
		if ev.End > r.Makespan {
			return fmt.Errorf("machine: event %q ends at %v after the makespan %v", ev.Task, ev.End, r.Makespan)
		}
		if known != nil && !known[ev.Resource] {
			return fmt.Errorf("machine: event %q scheduled on unconfigured resource %q", ev.Task, ev.Resource)
		}
		byResource[ev.Resource] = append(byResource[ev.Resource], ev)
	}
	for res, evs := range byResource {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
		for i := 1; i < len(evs); i++ {
			if evs[i].Start < evs[i-1].End {
				return fmt.Errorf("machine: resource %q double-booked: %q [%v..%v] overlaps %q [%v..%v]",
					res, evs[i-1].Task, evs[i-1].Start, evs[i-1].End, evs[i].Task, evs[i].Start, evs[i].End)
			}
		}
	}
	return nil
}

// RenderGantt writes an ASCII Gantt chart of the schedule: one row per
// resource, time flowing left to right across the given width in
// characters. Each event is drawn as a bar labelled with its task id.
func (r *Result) RenderGantt(w io.Writer, width int) error {
	if width < 20 {
		width = 20
	}
	if r.Makespan <= 0 {
		_, err := fmt.Fprintln(w, "(empty schedule)")
		return err
	}
	scale := float64(width) / float64(r.Makespan)

	resources := make(map[string][]Event)
	var order []string
	for _, ev := range r.Events {
		if _, ok := resources[ev.Resource]; !ok {
			order = append(order, ev.Resource)
		}
		resources[ev.Resource] = append(resources[ev.Resource], ev)
	}
	sort.Strings(order)

	nameW := 0
	for _, res := range order {
		if len(res) > nameW {
			nameW = len(res)
		}
	}

	if _, err := fmt.Fprintf(w, "%-*s 0%s%v\n", nameW, "", strings.Repeat(" ", width-len(fmt.Sprint(r.Makespan))), r.Makespan); err != nil {
		return err
	}
	for _, res := range order {
		line := make([]byte, width)
		for i := range line {
			line[i] = '.'
		}
		for _, ev := range resources[res] {
			s := int(float64(ev.Start) * scale)
			e := int(float64(ev.End) * scale)
			if e <= s {
				e = s + 1
			}
			if e > width {
				e = width
			}
			label := ev.Task
			for i := s; i < e && i < width; i++ {
				line[i] = '#'
			}
			// Overlay the label if it fits inside the bar.
			if e-s >= len(label)+2 {
				copy(line[s+1:], label)
			}
		}
		if _, err := fmt.Fprintf(w, "%-*s |%s|\n", nameW, res, line); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-*s makespan %v, busy %v, concurrency %.2fx\n",
		nameW, "", r.Makespan, r.BusyTime, r.Concurrency())
	return err
}
