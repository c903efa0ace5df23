package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one reading of a daemon's /metrics: series text (name plus its
// {label="v",...} block exactly as obs.WriteText prints it) → value.
type scrape map[string]float64

// parseScrape reads the obs.WriteText exposition: one `series value` line
// per counter, gauge and histogram bucket/sum/count.
func parseScrape(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Label values are %q-quoted and may hold spaces; the value is
		// whatever follows the last space.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// fetchScrape reads base's /metrics.
func fetchScrape(hc *http.Client, base string) (scrape, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	return parseScrape(resp.Body)
}

// delta returns after − before for every series of after; a series absent
// from before counts from zero (obs registers most series on first use).
func delta(before, after scrape) scrape {
	out := make(scrape, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// add folds o into s, summing series both hold (used to total the shards
// of a cluster).
func (s scrape) add(o scrape) {
	for k, v := range o {
		s[k] += v
	}
}

// sum totals every series of the given metric name whose label block
// contains all of the given `key="value"` fragments.
func (s scrape) sum(name string, labels ...string) float64 {
	total := 0.0
	for series, v := range s {
		n, block, _ := strings.Cut(series, "{")
		if n != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(block, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}
