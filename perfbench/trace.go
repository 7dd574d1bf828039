package main

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync/atomic"
)

// Spans are recorded by the benchmark's own code around each call it makes
// into a layer of the program. A span name is "<layer>.<call>"; spans named
// "req.*" are roots, one per measured operation, and their total duration
// is the end-to-end time the layer shares are taken of.

type span struct {
	id, parent uint32 // id is the slot index + 1; parent 0 means none
	req        uint32 // request id shared by every span of one operation
	pe         uint8
	name       string
	start, end int64 // nanoseconds on the benchmark clock; end 0 = open
}

// tracer keeps spans in a buffer allocated up front so that recording
// neither allocates nor locks; spans past its capacity are counted and
// dropped. A nil *tracer records nothing, which is the untraced mode.
type tracer struct {
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

// activeTracer is the tracer AM handlers record into: the runtime decodes
// handlers itself, so they reach no benchmark state but package variables.
// It is set between runs, before any world starts.
var activeTracer *tracer

func newTracer(capacity int) *tracer { return &tracer{spans: make([]span, capacity)} }

// begin opens a span starting now and returns its id (0 when not traced).
func (t *tracer) begin(name string, parent, req uint32, pe int) uint32 {
	return t.record(name, parent, req, pe, now(), 0)
}

// record stores a span whose times were taken elsewhere and returns its id.
func (t *tracer) record(name string, parent, req uint32, pe int, start, end int64) uint32 {
	if t == nil {
		return 0
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return 0
	}
	t.spans[i] = span{id: uint32(i + 1), parent: parent, req: req, pe: uint8(pe), name: name, start: start, end: end}
	return uint32(i + 1)
}

// end closes span id.
func (t *tracer) end(id uint32) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].end = now()
}

// reset forgets every recorded span.
func (t *tracer) reset() {
	t.next.Store(0)
	t.dropped.Store(0)
}

// full reports whether at least n more spans would be dropped.
func (t *tracer) full(n int) bool {
	return t != nil && t.next.Load()+int64(n) > int64(len(t.spans))
}

// recorded returns the closed spans, after every recording goroutine ended.
func (t *tracer) recorded() []span {
	n := min(t.next.Load(), int64(len(t.spans)))
	out := make([]span, 0, n)
	for _, s := range t.spans[:n] {
		if s.end >= s.start && s.end != 0 {
			out = append(out, s)
		}
	}
	return out
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// linkHandlers parents each "handler.*" span recorded without a parent to
// the span of the same request named issue: a handler runs on another PE
// and learns only the request id from the AM payload.
func linkHandlers(spans []span, issue string) {
	byReq := make(map[uint32]uint32)
	for _, s := range spans {
		if s.name == issue {
			byReq[s.req] = s.id
		}
	}
	for i := range spans {
		if spans[i].parent == 0 && layerOf(spans[i].name) == "handler" {
			spans[i].parent = byReq[spans[i].req]
		}
	}
}

// selfTimes returns each layer's self time, a span's duration minus the
// part of its interval that its children cover (children may nest, overlap
// one another, or extend past the parent), and the end-to-end time, the
// summed duration of the "req" root spans. Both are in nanoseconds.
func selfTimes(spans []span) (self map[string]int64, e2e int64) {
	children := make(map[uint32][][2]int64)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	self = make(map[string]int64)
	for _, s := range spans {
		d := s.end - s.start
		if layerOf(s.name) == "req" {
			e2e += d
		}
		self[layerOf(s.name)] += d - covered(s.start, s.end, children[s.id])
	}
	return self, e2e
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	slices.SortFunc(clipped, func(x, y [2]int64) int {
		switch {
		case x[0] < y[0]:
			return -1
		case x[0] > y[0]:
			return 1
		}
		return 0
	})
	var total, end int64
	end = lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// spanWriter writes spans as tab-separated lines, one per span, tagged
// with the segment they were recorded in. The first error sticks and is
// returned by close.
type spanWriter struct {
	bw  *bufio.Writer
	err error
}

func newSpanWriter(w io.Writer) *spanWriter {
	sw := &spanWriter{bw: bufio.NewWriter(w)}
	_, sw.err = fmt.Fprintln(sw.bw, "segment\tid\tparent\treq\tpe\tname\tstart_ns\tend_ns")
	return sw
}

func (sw *spanWriter) write(segment int, spans []span) {
	for _, s := range spans {
		if sw.err != nil {
			return
		}
		_, sw.err = fmt.Fprintf(sw.bw, "%d\t%d\t%d\t%d\t%d\t%s\t%d\t%d\n",
			segment, s.id, s.parent, s.req, s.pe, s.name, s.start, s.end)
	}
}

func (sw *spanWriter) close() error {
	if sw.err != nil {
		return sw.err
	}
	return sw.bw.Flush()
}
