package metrics

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"
)

// HistogramValue is a histogram as it appears on a page: cumulative bucket
// counts under finite upper bounds, the total count (the +Inf bucket) and
// the sum of observations in seconds.
type HistogramValue struct {
	Bounds []float64
	Counts []int64 // cumulative, aligned with Bounds
	Count  int64
	Sum    float64
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

// Family returns the family called name, or nil.
func (p Page) Family(name string) *Family {
	for i := range p {
		if p[i].Name == name {
			return &p[i]
		}
	}
	return nil
}

// series returns the member of family name with exactly these label values.
func (p Page) series(name string, labelValues []string) *Series {
	f := p.Family(name)
	if f == nil {
		return nil
	}
	for i := range f.Series {
		if slices.Equal(f.Series[i].LabelValues, labelValues) {
			return &f.Series[i]
		}
	}
	return nil
}

// Value returns one counter or gauge series' value; ok is false when the
// page has no such series.
func (p Page) Value(name string, labelValues ...string) (v float64, ok bool) {
	if s := p.series(name, labelValues); s != nil && s.Hist == nil {
		return s.Value, true
	}
	return 0, false
}

// Histogram returns one histogram series, or nil when the page has none.
func (p Page) Histogram(name string, labelValues ...string) *HistogramValue {
	if s := p.series(name, labelValues); s != nil {
		return s.Hist
	}
	return nil
}

// formatFloat is fmt's %g: the shortest representation that round-trips.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// formatValue renders a counter, gauge or bucket count: as an integer when
// it is one (every series the binaries export), else like formatFloat.
func formatValue(v float64) string {
	if i := int64(v); float64(i) == v {
		return strconv.FormatInt(i, 10)
	}
	return formatFloat(v)
}

// labelSet renders {a="x",b="y"} — plus extra, already rendered, last.
func labelSet(names, values []string, extra string) string {
	if len(names) == 0 && extra == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, name := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(name)
		sb.WriteByte('=')
		sb.WriteString(strconv.Quote(values[i]))
	}
	if extra != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extra)
	}
	sb.WriteByte('}')
	return sb.String()
}

// WriteText renders the page in the Prometheus text exposition format.
func (p Page) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range p {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Kind)
		for _, s := range f.Series {
			if s.Hist == nil {
				fmt.Fprintf(bw, "%s%s %s\n", f.Name, labelSet(f.Labels, s.LabelValues, ""), formatValue(s.Value))
				continue
			}
			for i, le := range s.Hist.Bounds {
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.Name,
					labelSet(f.Labels, s.LabelValues, `le="`+formatFloat(le)+`"`), s.Hist.Counts[i])
			}
			labels := labelSet(f.Labels, s.LabelValues, "")
			fmt.Fprintf(bw, "%s_bucket%s %d\n", f.Name, labelSet(f.Labels, s.LabelValues, `le="+Inf"`), s.Hist.Count)
			fmt.Fprintf(bw, "%s_sum%s %s\n", f.Name, labels, formatFloat(s.Hist.Sum))
			fmt.Fprintf(bw, "%s_count%s %d\n", f.Name, labels, s.Hist.Count)
		}
	}
	return bw.Flush()
}

// ParseText reads a page WriteText rendered. Families are delimited by
// their # HELP / # TYPE lines; a sample with neither before it starts an
// untyped family of its own. Malformed lines are an error, with the line
// number: a page is another process's output, checked rather than trusted.
func ParseText(r io.Reader) (Page, error) {
	var page Page
	family := func(name string) *Family {
		if n := len(page); n > 0 && page[n-1].Name == name {
			return &page[n-1]
		}
		page = append(page, Family{Name: name})
		return &page[len(page)-1]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			family(name).Help = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			family(name).Kind = Kind(kind)
			continue
		}
		if line[0] == '#' {
			continue
		}
		if err := parseSample(&page, line); err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return page, nil
}

// parseSample folds one `name{labels} value` line into the page's last
// family (or a new untyped one).
func parseSample(page *Page, line string) error {
	end := strings.IndexAny(line, "{ ")
	if end <= 0 {
		return fmt.Errorf("malformed sample %q", line)
	}
	name, rest := line[:end], line[end:]
	var names, values []string
	if rest[0] == '{' {
		rest = rest[1:]
		for rest != "" && rest[0] != '}' {
			eq := strings.IndexByte(rest, '=')
			if eq <= 0 {
				return fmt.Errorf("malformed labels in %q", line)
			}
			quoted, err := strconv.QuotedPrefix(rest[eq+1:])
			if err != nil {
				return fmt.Errorf("malformed label value in %q", line)
			}
			value, err := strconv.Unquote(quoted)
			if err != nil {
				return fmt.Errorf("malformed label value in %q", line)
			}
			names, values = append(names, rest[:eq]), append(values, value)
			rest = strings.TrimPrefix(rest[eq+1+len(quoted):], ",")
		}
		if rest == "" {
			return fmt.Errorf("unterminated labels in %q", line)
		}
		rest = rest[1:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return fmt.Errorf("malformed value in %q", line)
	}

	// Which family? The last one, if the sample carries its name (plus, for
	// a histogram, one of the three suffixes); else a new untyped family.
	var f *Family
	suffix := ""
	if n := len(*page); n > 0 {
		last := &(*page)[n-1]
		if s, ok := strings.CutPrefix(name, last.Name); ok &&
			(s == "" || last.Kind == KindHistogram && (s == "_bucket" || s == "_sum" || s == "_count")) {
			f, suffix = last, s
		}
	}
	if f == nil {
		*page = append(*page, Family{Name: name, Kind: "untyped"})
		f = &(*page)[len(*page)-1]
	}
	le := ""
	if suffix == "_bucket" {
		if n := len(names); n == 0 || names[n-1] != "le" {
			return fmt.Errorf("bucket without a trailing le label in %q", line)
		}
		le = values[len(values)-1]
		names, values = names[:len(names)-1], values[:len(values)-1]
	}
	if f.Labels == nil {
		f.Labels = names
	}
	if f.Kind != KindHistogram {
		f.Series = append(f.Series, Series{LabelValues: values, Value: v})
		return nil
	}
	// A histogram's lines arrive grouped by series: extend the last series
	// while the label values repeat.
	if n := len(f.Series); n == 0 || !slices.Equal(f.Series[n-1].LabelValues, values) {
		f.Series = append(f.Series, Series{LabelValues: values, Hist: &HistogramValue{}})
	}
	h := f.Series[len(f.Series)-1].Hist
	switch {
	case suffix == "_sum":
		h.Sum = v
	case suffix == "_count" || le == "+Inf":
		h.Count = int64(v)
	case suffix == "_bucket":
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return fmt.Errorf("malformed le in %q", line)
		}
		h.Bounds, h.Counts = append(h.Bounds, bound), append(h.Counts, int64(v))
	default:
		return fmt.Errorf("bare sample %q in a histogram family", line)
	}
	return nil
}
