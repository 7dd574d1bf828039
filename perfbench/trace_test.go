package main

import "testing"

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{id: 1, name: "req.op", start: 0, end: 100},
		// Two overlapping children of the root cover [10, 50).
		{id: 2, parent: 1, name: "runtime.a", start: 10, end: 30},
		{id: 3, parent: 1, name: "runtime.b", start: 20, end: 50},
		// A child that runs past its parent covers only [90, 100).
		{id: 4, parent: 1, name: "array.c", start: 90, end: 120},
		// A grandchild nested in span 2.
		{id: 5, parent: 2, name: "kv.d", start: 25, end: 28},
	}
	self, e2e := selfTimes(spans)
	if e2e != 100 {
		t.Errorf("e2e = %d, want 100", e2e)
	}
	want := map[string]int64{
		"req":     100 - 40 - 10,   // 50
		"runtime": (20 - 3) + (30), // a minus d, plus b
		"array":   30,              // all its own
		"kv":      3,
	}
	for l, w := range want {
		if self[l] != w {
			t.Errorf("self[%s] = %d, want %d", l, self[l], w)
		}
	}
}

func TestCoveredUnion(t *testing.T) {
	for _, c := range []struct {
		ivs  [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}, {0, 10}}, 10},
		{[][2]int64{{5, 8}, {0, 10}}, 10},
		{[][2]int64{{-5, 3}, {8, 20}}, 5},
		{[][2]int64{{20, 30}}, 0},
	} {
		if got := covered(0, 10, c.ivs); got != c.want {
			t.Errorf("covered(%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

func TestLinkHandlersAndTracer(t *testing.T) {
	tr := newTracer(3)
	issue := tr.begin("runtime.exec_am", 0, 7, 0)
	tr.end(issue)
	tr.record("handler.exec", 0, 7, 1, 5, 6)
	tr.record("handler.exec", 0, 8, 1, 5, 6)
	if id := tr.begin("dropped", 0, 0, 0); id != 0 || tr.dropped.Load() != 1 {
		t.Fatalf("span past capacity: id %d, dropped %d", id, tr.dropped.Load())
	}
	spans := tr.recorded()
	linkHandlers(spans, "runtime.exec_am")
	if spans[1].parent != issue || spans[2].parent != 0 {
		t.Fatalf("handler parents %d and %d, want %d and 0", spans[1].parent, spans[2].parent, issue)
	}
	var nilTracer *tracer
	if nilTracer.begin("x", 0, 0, 0) != 0 || nilTracer.full(1) {
		t.Fatal("nil tracer must record nothing")
	}
	nilTracer.end(1)
}
