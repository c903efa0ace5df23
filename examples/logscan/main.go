// Logscan: the two special-purpose peripherals the paper builds around the
// relational arrays — the logic-per-track disk (§9, reference [8]) and the
// Foster-Kung pattern-match chip (§8, reference [3]) — working together on
// a log-triage scenario.
//
// An event log is stored on the modelled disk; the track heads select the
// high-severity events in a single revolution (no matter how large the
// log); the pattern-match chip then scans the message dictionary for a
// wildcard pattern, and a systolic equi-join attaches the matching message
// text to the selected events.
package main

import (
	"fmt"
	"log"

	"systolicdb"
	"systolicdb/internal/lptdisk"
	"systolicdb/internal/perf"
)

func main() {
	msgDom := systolicdb.DictDomain("messages")
	sevDom := systolicdb.IntDomain("severity")

	// The message dictionary (the §2.3 "list of encodings", here used as
	// data in its own right).
	messages := []string{
		"disk timeout on unit 3",
		"disk failure on unit 7",
		"checkpoint complete",
		"disk recovery on unit 7",
		"user login",
	}
	for _, m := range messages {
		if _, err := msgDom.EncodeString(m); err != nil {
			log.Fatal(err)
		}
	}

	// events(msg, severity): a large log.
	schema, err := systolicdb.NewSchema(
		systolicdb.Column{Name: "msg", Domain: msgDom},
		systolicdb.Column{Name: "severity", Domain: sevDom},
	)
	if err != nil {
		log.Fatal(err)
	}
	var tuples []systolicdb.Tuple
	for i := 0; i < 5000; i++ {
		msg := systolicdb.Element(i % len(messages))
		sev := systolicdb.Element(i%10 + 1) // 1..10
		tuples = append(tuples, systolicdb.Tuple{msg, sev})
	}
	events, err := systolicdb.NewRelation(schema, tuples)
	if err != nil {
		log.Fatal(err)
	}

	// Step 1 — selection at the disk heads. §9: "simple queries never
	// have to be processed outside the disks."
	disk, err := lptdisk.New(32, perf.Disk1980)
	if err != nil {
		log.Fatal(err)
	}
	if err := disk.Store(events); err != nil {
		log.Fatal(err)
	}
	severe, st, err := disk.Select(systolicdb.DiskQuery{
		{Col: 1, Op: systolicdb.GE, Value: 9},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("disk selection: %d of %d events with severity >= 9, in %v (one revolution)\n",
		severe.Cardinality(), events.Cardinality(), st.Time)

	// Step 2 — pattern search over the dictionary with the match chip:
	// the prefix pattern "disk " finds disk-related messages whatever
	// the verb ('?' wildcards are available too; see ExampleMatchPattern).
	var interesting []systolicdb.Element
	fmt.Println("\npattern-match chip scan of the dictionary for \"disk \":")
	for i, m := range messages {
		pos, _, err := systolicdb.MatchPattern("disk ", m+" ")
		if err != nil {
			log.Fatal(err)
		}
		if len(pos) > 0 {
			fmt.Printf("  msg %d matches: %q\n", i, m)
			interesting = append(interesting, systolicdb.Element(i))
		}
	}

	// Step 3 — join the severe events to the interesting messages on the
	// systolic join array.
	msgSchema, err := systolicdb.NewSchema(systolicdb.Column{Name: "msg", Domain: msgDom})
	if err != nil {
		log.Fatal(err)
	}
	var msgTuples []systolicdb.Tuple
	for _, e := range interesting {
		msgTuples = append(msgTuples, systolicdb.Tuple{e})
	}
	wanted, err := systolicdb.NewRelation(msgSchema, msgTuples)
	if err != nil {
		log.Fatal(err)
	}
	// Dedup the severe events' messages first (remove-duplicates array),
	// then join.
	severeMsgs, err := systolicdb.Project(severe, []int{0})
	if err != nil {
		log.Fatal(err)
	}
	joined, err := systolicdb.EquiJoin(severeMsgs.Relation, wanted, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsevere disk-related message kinds:")
	for i := 0; i < joined.Relation.Cardinality(); i++ {
		s, err := msgDom.DecodeString(joined.Relation.Tuple(i)[0])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("  ", s)
	}
	fmt.Printf("\njoin array: %d pulses on %d processors (modeled %v)\n",
		joined.Stats.Pulses, joined.Stats.Cells, joined.Stats.ModeledTime)
}
