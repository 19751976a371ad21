package main

import (
	"bufio"
	"strconv"
	"strings"
)

// promSample is one scrape of a Prometheus text page: series name with its
// label set, verbatim (`currents_requests_total{op="answer"}`), to value.
type promSample map[string]float64

// parseProm reads the text exposition format as the currents binaries write
// it: `name{labels} value` lines, `#` comments. Lines it cannot read are
// skipped — a scrape is evidence, not input to the program.
func parseProm(text string) promSample {
	out := promSample{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out
}

// delta returns end − start per series; a series absent at the start (a
// shard label that appeared mid-run) counts from zero.
func (end promSample) delta(start promSample) promSample {
	out := make(promSample, len(end))
	for k, v := range end {
		out[k] = v - start[k]
	}
	return out
}

// sum adds every series whose name (the part before the labels) is exactly
// name, so per-shard and per-dataset series fold into one figure.
func (s promSample) sum(name string) float64 {
	var total float64
	for k, v := range s {
		base := k
		if i := strings.IndexByte(k, '{'); i >= 0 {
			base = k[:i]
		}
		if base == name {
			total += v
		}
	}
	return total
}

// add folds several processes' scrapes into one (the two shards of a fleet).
func (s promSample) add(o promSample) {
	for k, v := range o {
		s[k] += v
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
