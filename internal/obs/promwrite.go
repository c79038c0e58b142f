package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"xpointdb/internal/histogram"
)

// PromWriter is the writing half of promtext.go: it emits Prometheus
// text exposition (version 0.0.4) one line at a time. Callers write a
// family's Header once and then every Sample or HistogramSeries of that
// family — the grouping ParsePromText and real Prometheus servers
// require. Labels are passed pre-rendered (`shard="0",level="1"`).
type PromWriter struct {
	W io.Writer
}

// Header writes the HELP and TYPE lines that open a family.
func (p PromWriter) Header(name, help, typ string) {
	fmt.Fprintf(p.W, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample line; labels may be empty.
func (p PromWriter) Sample(name, labels string, v float64) {
	if labels == "" {
		fmt.Fprintf(p.W, "%s %s\n", name, PromFloat(v))
		return
	}
	fmt.Fprintf(p.W, "%s{%s} %s\n", name, labels, PromFloat(v))
}

// HistogramSeries writes the _bucket/_sum/_count series for one
// histogram under the given (possibly empty) label set. Buckets are
// cumulative with le in seconds, ending at +Inf; an empty histogram
// still writes a zero +Inf bucket so the family stays structurally
// valid.
func (p PromWriter) HistogramSeries(name, labels string, h *histogram.Histogram) {
	buckets, count, sum := h.Export()
	if len(buckets) == 0 {
		p.Sample(name+"_bucket", JoinLabels(labels, `le="+Inf"`), 0)
	}
	for _, b := range buckets {
		le := "+Inf"
		if b.UpperBound != math.MaxInt64 {
			le = PromFloat(float64(b.UpperBound) / 1e9)
		}
		p.Sample(name+"_bucket", JoinLabels(labels, `le="`+le+`"`), float64(b.Count))
	}
	p.Sample(name+"_sum", labels, sum.Seconds())
	p.Sample(name+"_count", labels, float64(count))
}

// JoinLabels concatenates two pre-rendered label lists, either of which
// may be empty.
func JoinLabels(a, b string) string {
	if a == "" || b == "" {
		return a + b
	}
	return a + "," + b
}

// PromFloat renders a sample value in shortest round-trip form.
func PromFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
