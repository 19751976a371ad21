package metrics

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"
)

// formatFloat is fmt's %g: the shortest representation that round-trips.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Text renders the page in the Prometheus text exposition format. Counts
// render as integers; a histogram's sum (seconds) renders like %g. The page
// comes back whole so a handler sends it in one write: scripts pipe
// /metrics into `grep -q` under pipefail, and a page dribbled out in pieces
// dies there with a broken pipe.
func (p Page) Text() []byte {
	var b bytes.Buffer
	for _, f := range p {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Kind)
		for _, s := range f.Samples {
			b.WriteString(s.Name)
			for i, l := range s.Labels {
				sep := ","
				if i == 0 {
					sep = "{"
				}
				fmt.Fprintf(&b, "%s%s=%q", sep, l.Name, l.Value)
			}
			if len(s.Labels) > 0 {
				b.WriteByte('}')
			}
			if i := int64(s.Value); float64(i) == s.Value && !strings.HasSuffix(s.Name, "_sum") {
				fmt.Fprintf(&b, " %d\n", i)
			} else {
				fmt.Fprintf(&b, " %s\n", formatFloat(s.Value))
			}
		}
	}
	return b.Bytes()
}

// ParseText reads a page Text rendered: families delimited by their
// # HELP / # TYPE lines, each followed by its samples. Malformed lines are
// an error, with the line number — a page is another process's output,
// checked rather than trusted.
func ParseText(r io.Reader) (Page, error) {
	var page Page
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		header := strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ")
		switch {
		case header:
			name, rest, _ := strings.Cut(line[len("# HELP "):], " ")
			if n := len(page); n == 0 || page[n-1].Name != name {
				page = append(page, Family{Name: name})
			}
			if f := &page[len(page)-1]; line[2] == 'H' {
				f.Help = rest
			} else {
				f.Kind = Kind(rest)
			}
		case line == "" || line[0] == '#':
		default:
			s, err := parseSample(line)
			if err == nil && (len(page) == 0 || !page[len(page)-1].owns(s.Name)) {
				err = fmt.Errorf("sample %q outside its family", s.Name)
			}
			if err != nil {
				return nil, fmt.Errorf("metrics: line %d: %w", lineNo, err)
			}
			f := &page[len(page)-1]
			f.Samples = append(f.Samples, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return page, nil
}

// owns reports whether a sample name belongs to the family.
func (f *Family) owns(sample string) bool {
	suffix, ok := strings.CutPrefix(sample, f.Name)
	return ok && (suffix == "" ||
		f.Kind == KindHistogram && (suffix == "_bucket" || suffix == "_sum" || suffix == "_count"))
}

// parseSample reads one `name{label="value",...} value` line.
func parseSample(line string) (Sample, error) {
	end := strings.IndexAny(line, "{ ")
	if end <= 0 {
		return Sample{}, fmt.Errorf("malformed sample %q", line)
	}
	s, rest := Sample{Name: line[:end]}, line[end:]
	if rest[0] == '{' {
		for rest = rest[1:]; !strings.HasPrefix(rest, "}"); rest = strings.TrimPrefix(rest, ",") {
			eq := strings.IndexByte(rest, '=')
			quoted, err := strconv.QuotedPrefix(rest[eq+1:])
			if eq <= 0 || err != nil {
				return Sample{}, fmt.Errorf("malformed labels in %q", line)
			}
			value, err := strconv.Unquote(quoted)
			if err != nil {
				return Sample{}, fmt.Errorf("malformed labels in %q", line)
			}
			s.Labels = append(s.Labels, Label{rest[:eq], value})
			rest = rest[eq+1+len(quoted):]
		}
		rest = rest[1:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return Sample{}, fmt.Errorf("malformed value in %q", line)
	}
	s.Value = v
	return s, nil
}

// Family returns the family called name, or nil.
func (p Page) Family(name string) *Family {
	for i := range p {
		if p[i].Name == name {
			return &p[i]
		}
	}
	return nil
}

// hasValues reports whether the labels carry exactly these values, in order.
func hasValues(labels []Label, values []string) bool {
	return slices.EqualFunc(labels, values, func(l Label, v string) bool { return l.Value == v })
}

// Value returns the sample called name with exactly these label values; ok
// is false when the page has none.
func (p Page) Value(name string, labelValues ...string) (v float64, ok bool) {
	for _, f := range p {
		for _, s := range f.Samples {
			if s.Name == name && hasValues(s.Labels, labelValues) {
				return s.Value, true
			}
		}
	}
	return 0, false
}

// HistogramValue is one histogram series read off a page: cumulative bucket
// counts under finite upper bounds, the total count (the +Inf bucket) and
// the sum of observations in seconds.
type HistogramValue struct {
	Bounds []float64
	Counts []int64 // cumulative, aligned with Bounds
	Count  int64
	Sum    float64
}

// Histogram assembles the histogram series of family name with exactly
// these label values (le aside), or nil when the page has none.
func (p Page) Histogram(name string, labelValues ...string) *HistogramValue {
	f := p.Family(name)
	if f == nil {
		return nil
	}
	var h *HistogramValue
	for _, s := range f.Samples {
		labels, le := s.Labels, ""
		if n := len(labels); n > 0 && s.Name == name+"_bucket" {
			labels, le = labels[:n-1], labels[n-1].Value
		}
		if !hasValues(labels, labelValues) {
			continue
		}
		if h == nil {
			h = &HistogramValue{}
		}
		switch {
		case s.Name == name+"_sum":
			h.Sum = s.Value
		case s.Name == name+"_count":
			h.Count = int64(s.Value)
		case le != "+Inf":
			if bound, err := strconv.ParseFloat(le, 64); err == nil {
				h.Bounds, h.Counts = append(h.Bounds, bound), append(h.Counts, int64(s.Value))
			}
		}
	}
	return h
}

// Sub returns the delta histogram h - h0: what was observed between two
// scrapes. h0 may be nil (a series that appeared after the first scrape).
func (h *HistogramValue) Sub(h0 *HistogramValue) *HistogramValue {
	d := &HistogramValue{Bounds: h.Bounds, Counts: append([]int64(nil), h.Counts...), Count: h.Count, Sum: h.Sum}
	if h0 == nil {
		return d
	}
	for i := range d.Counts {
		if i < len(h0.Counts) {
			d.Counts[i] -= h0.Counts[i]
		}
	}
	d.Count -= h0.Count
	d.Sum -= h0.Sum
	return d
}

// Quantile estimates the p-quantile (0..1) by linear interpolation inside
// the containing bucket. Observations above the top finite bound report
// that bound — a floor; the buckets in use run far past sane latencies.
func (h *HistogramValue) Quantile(p float64) time.Duration {
	if h.Count <= 0 {
		return 0
	}
	target := p * float64(h.Count)
	prevLe, prevCum := 0.0, int64(0)
	for i, le := range h.Bounds {
		cum := h.Counts[i]
		if float64(cum) >= target {
			span := float64(cum - prevCum)
			frac := 1.0
			if span > 0 {
				frac = (target - float64(prevCum)) / span
			}
			return time.Duration((prevLe + (le-prevLe)*frac) * float64(time.Second))
		}
		prevLe, prevCum = le, cum
	}
	return time.Duration(prevLe * float64(time.Second))
}
