package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// reported is one metric of the suite document. With -repeat N the value is
// the median over the N runs and the quartiles and their relative spread
// (the figure a bound must stay clear of) come with it.
type reported struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound,omitempty"`
	Samples int       `json:"samples,omitempty"`
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	Spread  float64   `json:"relative_spread,omitempty"`
	Values  []float64 `json:"values,omitempty"`
}

type workloadReport struct {
	Why          string              `json:"why"`
	Correct      bool                `json:"correct"`
	Attempted    int64               `json:"attempted"`
	Failed       int64               `json:"failed"`
	FailRatio    float64             `json:"fail_ratio"`
	InputSHA256  []string            `json:"input_sha256"`
	Samples      map[string]int      `json:"samples"`
	TailSupports map[string]float64  `json:"supported_percentile"`
	FailedGates  []string            `json:"failed_gates,omitempty"`
	EndToEnd     map[string]reported `json:"end_to_end"`
	PerLayer     map[string]reported `json:"per_layer,omitempty"`
}

type suiteReport struct {
	Environment environment               `json:"environment"`
	Seed        int64                     `json:"seed"`
	Seconds     int                       `json:"seconds"`
	Repeat      int                       `json:"repeat"`
	Quick       bool                      `json:"quick"`
	Traced      bool                      `json:"traced"`
	Workloads   map[string]workloadReport `json:"workloads"`
}

// sampleKey maps a metric to the sample count printed beside it.
var sampleKey = map[string]string{
	"setup_s": "setup", "read_rps": "read", "read_p50_ms": "read", "read_p95_ms": "read", "append_p10_ms": "append",
}

func summarise(defs []metricDef, runs []*run, pick func(*run) map[string]float64) map[string]reported {
	out := map[string]reported{}
	for _, d := range defs {
		var vals []float64
		for _, r := range runs {
			if v, ok := pick(r)[d.Name]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			continue
		}
		rep := reported{Value: vals[0], Unit: d.Unit, Better: d.Better, Bound: d.Bound}
		last := runs[len(runs)-1]
		if k, ok := sampleKey[d.Name]; ok {
			rep.Samples = last.samples[k]
		}
		if len(vals) > 1 {
			rep.Q1, rep.Value, rep.Q3 = quartiles(vals)
			rep.Spread = relativeSpread(vals)
			rep.Values = vals
		}
		out[d.Name] = rep
	}
	return out
}

// runSuite runs the named workloads repeat times, run i on seed+i, checks
// every gate, and prints one JSON document. A failed gate or request makes
// the exit status non-zero after the document is out.
func runSuite(names []string, seed int64, p params, repeat int) error {
	if repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1")
	}
	doc := suiteReport{Environment: readEnvironment(), Seed: seed, Seconds: p.seconds, Repeat: repeat,
		Quick: p.quick, Traced: p.trace, Workloads: map[string]workloadReport{}}
	wanted := map[string]bool{}
	for _, n := range names {
		wanted[n] = true
	}
	ok := true
	for _, wd := range workloads {
		if !wanted[wd.Name] {
			continue
		}
		var runs []*run
		for i := 0; i < repeat; i++ {
			fmt.Fprintf(os.Stderr, "bench: %s run %d/%d\n", wd.Name, i+1, repeat)
			r, err := runOnce(wd.Name, seed+int64(i), p)
			if err != nil {
				return err
			}
			r.report(os.Stderr)
			runs = append(runs, r)
		}
		wr := workloadReport{Why: wd.Why, Correct: true, Samples: runs[len(runs)-1].samples,
			TailSupports: map[string]float64{}}
		for _, r := range runs {
			wr.Correct = wr.Correct && r.correct()
			wr.Attempted += r.attempted
			wr.Failed += r.failed
			wr.InputSHA256 = append(wr.InputSHA256, r.hashes["inputs"])
			wr.FailedGates = append(wr.FailedGates, r.gates...)
		}
		wr.FailRatio = ratio(float64(wr.Failed), float64(wr.Attempted))
		for _, k := range []string{"read", "append"} {
			wr.TailSupports[k] = supportedPercentile(wr.Samples[k])
		}
		wr.EndToEnd = summarise(endToEnd, runs, func(r *run) map[string]float64 { return r.e2e })
		if p.trace {
			wr.PerLayer = summarise(perLayer, runs, func(r *run) map[string]float64 { return r.layer })
		}
		ok = ok && wr.Correct
		doc.Workloads[wd.Name] = wr
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("a correctness gate failed; see failed_gates")
	}
	return nil
}
