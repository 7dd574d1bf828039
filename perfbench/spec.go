package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec is BENCHMARK.json at the repository root.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// prediction records which end-to-end metric a per-layer metric should
// move, and on which workload, so a performance change can cite it.
type prediction struct {
	Layer    string `json:"layer_metric"`
	Moves    string `json:"moves"`
	Workload string `json:"workload"`
	Why      string `json:"why"`
}

// designSpec is perfbench/design.json: the prediction table and the
// expected interactions.
type designSpec struct {
	Predictions  []prediction `json:"predictions"`
	Interactions []string     `json:"interactions"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// loadSpecs reads BENCHMARK.json under the repository root and validates
// it, together with perfbench/design.json, against the workloads the
// benchmark can run.
func loadSpecs(root string, runnable []string) (*benchSpec, error) {
	var b benchSpec
	if err := decodeStrict(filepath.Join(root, "BENCHMARK.json"), &b); err != nil {
		return nil, err
	}
	var d designSpec
	if err := decodeStrict(filepath.Join(root, "perfbench", "design.json"), &d); err != nil {
		return nil, err
	}
	if err := validate(&b, &d, runnable); err != nil {
		return nil, err
	}
	return &b, nil
}

func decodeStrict(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// validate checks the limits BENCHMARK.json must meet, that it lists only
// runnable workloads, and that every prediction names a per-layer metric,
// an end-to-end metric and a workload BENCHMARK.json lists, with every
// per-layer metric predicted at least once. A runnable workload that
// BENCHMARK.json does not list is run by hand and not gated.
func validate(b *benchSpec, d *designSpec, runnable []string) error {
	var errs []string
	bad := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }

	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		bad("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		bad("%d workloads, want 2 to 8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		bad("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		bad("%d per-layer metrics, want 1 to 128", n)
	}
	used := make(map[string]bool)
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			bad("%s name %q does not match %s", kind, name, nameRE)
		}
		if used[name] {
			bad("%s name %q used twice", kind, name)
		}
		used[name] = true
	}
	runs := make(map[string]bool)
	for _, w := range runnable {
		runs[w] = true
	}
	listed := make(map[string]bool)
	for _, w := range b.Workloads {
		checkName("workload", w.Name)
		listed[w.Name] = true
		if !runs[w.Name] {
			bad("workload %q is not one the benchmark runs", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			bad("workload %q: why must be one line of 1 to 200 characters", w.Name)
		}
	}
	e2e := make(map[string]bool)
	for _, m := range b.EndToEnd {
		checkName("end-to-end metric", m.Name)
		e2e[m.Name] = true
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			bad("end-to-end metric %q: bound must be in (0, 0.25]", m.Name)
		}
	}
	layer := make(map[string]bool)
	for _, m := range b.PerLayer {
		checkName("per-layer metric", m.Name)
		layer[m.Name] = true
		if m.Bound != nil {
			bad("per-layer metric %q has a bound", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), b.EndToEnd...), b.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			bad("metric %q: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "higher" && m.Better != "lower" {
			bad("metric %q: better must be higher or lower, got %q", m.Name, m.Better)
		}
	}
	if !e2e["setup_s"] {
		bad("end-to-end metrics lack setup_s")
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			bad("setup_s must have unit s and better lower")
		}
	}

	predicted := make(map[string]bool)
	for _, p := range d.Predictions {
		if !layer[p.Layer] {
			bad("prediction names unknown per-layer metric %q", p.Layer)
		}
		if !e2e[p.Moves] {
			bad("prediction for %q names unknown end-to-end metric %q", p.Layer, p.Moves)
		}
		if !listed[p.Workload] {
			bad("prediction for %q names workload %q, which BENCHMARK.json does not list", p.Layer, p.Workload)
		}
		predicted[p.Layer] = true
	}
	for _, m := range b.PerLayer {
		if !predicted[m.Name] {
			bad("per-layer metric %q has no prediction", m.Name)
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("invalid benchmark spec:\n  %s", strings.Join(errs, "\n  "))
	}
	return nil
}
