package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Name is "<layer>.<call>", Unit
// the hammer leg, traffic phase or experiment it served, and Work the
// simulated operations it performed (activations, accesses, REFs), so
// per-operation costs are measured where the work happens.
type span struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Work   int64  `json:"work"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory when on; when off, begin and end do
// nothing, so the untraced run times the same code without the
// recording.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
	stack  []int
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name, unit string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Unit: unit, Start: t.now(), Parent: parent})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

// end closes the span begin returned, recording work simulated
// operations.
func (t *tracer) end(i int, work int64) {
	if i < 0 {
		return
	}
	t.spans[i].End = t.now()
	t.spans[i].Work = work
	t.stack = t.stack[:len(t.stack)-1]
}

// layer is the layer a span belongs to: the part of its name before
// the first dot.
func layer(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfSeconds returns each layer's self time over the spans recorded
// from index from on: its spans' durations minus the part covered by
// their child spans.
func selfSeconds(all []span, from int) map[string]float64 {
	child := make([]int64, len(all))
	for _, s := range all[from:] {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]float64{}
	for i := from; i < len(all); i++ {
		out[layer(all[i].Name)] += float64(all[i].dur()-child[i]) / 1e9
	}
	return out
}

// topSeconds is the summed duration of spans without a parent.
func topSeconds(spans []span) float64 {
	var total int64
	for _, s := range spans {
		if s.Parent < 0 {
			total += s.dur()
		}
	}
	return float64(total) / 1e9
}

// named returns the spans with the given name and unit ("" matches
// any unit).
func named(spans []span, name, unit string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name && (unit == "" || s.Unit == unit) {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as gzipped JSON under dir.
func (t *tracer) write(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json.gz", workload, seed)))
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	if err := json.NewEncoder(zw).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timing summarises samples the way every timing is reported: the
// median, the tail — the highest percentile with at least ten samples
// beyond it, i.e. the 11th-largest sample (0 with fewer than 11) — and
// the sample count.
type timing struct {
	median, tail float64
	n            int
}

func summarize(samples []float64) timing {
	t := timing{median: median(samples), n: len(samples)}
	if len(samples) >= 11 {
		s := append([]float64(nil), samples...)
		sort.Float64s(s)
		t.tail = s[len(s)-11]
	}
	return t
}

// median of samples (any order).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// perWork turns spans into per-operation nanosecond samples, skipping
// spans that did no work.
func perWork(spans []span) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Work > 0 {
			out = append(out, float64(s.dur())/float64(s.Work))
		}
	}
	return out
}

// seconds turns spans into duration samples in seconds.
func seconds(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / 1e9
	}
	return out
}
