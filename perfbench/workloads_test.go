package main

import (
	"strings"
	"testing"
	"time"
)

// Each workload runs briefly, passes its own correctness checks and
// measures every end-to-end metric; together the workloads measure every
// per-layer metric that does not come from the trace.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b, err := loadSpecs("..", workloadNames())
	if err != nil {
		t.Fatal(err)
	}
	measured := make(map[string]bool)
	for _, w := range workloadDefs {
		m, err := w.run(runOpts{seed: 3, timed: 300 * time.Millisecond})
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
			continue
		}
		if m.failed != 0 || m.attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", w.name, m.failed, m.attempted, m.violations)
		}
		e2e := endToEnd([]*measurement{m})
		for _, ms := range b.EndToEnd {
			if v, ok := e2e[ms.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end %s = %v, %v", w.name, ms.Name, v, ok)
			}
		}
		for name := range m.layer {
			measured[name] = true
		}
	}
	for _, ms := range b.PerLayer {
		traced := strings.HasPrefix(ms.Name, "trace.") || ms.Name == "req.lat_p99_us"
		if !traced && !measured[ms.Name] {
			t.Errorf("per-layer %s is measured on no workload", ms.Name)
		}
	}
}

// A traced pingpong records a root, issue and await span per round trip,
// and a handler span on PE 1 that links to its issue span by request id.
func TestTracedPingpong(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	tr := newTracer(1 << 16)
	activeTracer = tr
	defer func() { activeTracer = nil }()
	m, err := runPingpong(runOpts{seed: 5, timed: 200 * time.Millisecond, tr: tr})
	if err != nil || m.failed != 0 {
		t.Fatalf("err %v, %d failed", err, m.failed)
	}
	spans := tr.recorded()
	linkHandlers(spans, "runtime.exec_am_return")
	counts := map[string]int{}
	for _, s := range spans {
		counts[s.name]++
		if s.name == "handler.exec" && s.parent == 0 {
			t.Errorf("handler span for request %d has no parent", s.req)
		}
	}
	n := m.attempted
	for _, name := range []string{"req.pingpong", "runtime.exec_am_return", "runtime.block_on", "handler.exec"} {
		if counts[name] != n {
			t.Errorf("%d %s spans for %d round trips", counts[name], name, n)
		}
	}
	self, e2e := selfTimes(spans)
	if e2e <= 0 || self["runtime"] <= 0 || self["runtime"] > e2e {
		t.Errorf("e2e %d ns, runtime self %d ns", e2e, self["runtime"])
	}
}
