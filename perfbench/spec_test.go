package main

import (
	"fmt"
	"strings"
	"testing"
)

func TestRepoSpecIsValid(t *testing.T) {
	if _, err := loadSpecs("..", workloadNames()); err != nil {
		t.Fatal(err)
	}
}

func validSpec() (*benchSpec, *designSpec) {
	bound := 0.1
	b := &benchSpec{
		RunSeconds: 10,
		Workloads:  []workloadSpec{{"a", "why a"}, {"b", "why b"}},
		EndToEnd:   []metricSpec{{Name: "setup_s", Unit: "s", Better: "lower", Bound: &bound}, {Name: "lat_us", Unit: "us", Better: "lower", Bound: &bound}},
		PerLayer:   []metricSpec{{Name: "x.y", Unit: "count", Better: "higher"}},
	}
	d := &designSpec{
		Predictions: []prediction{{Layer: "x.y", Moves: "lat_us", Workload: "a"}},
	}
	return b, d
}

func TestValidateRejects(t *testing.T) {
	if b, d := validSpec(); validate(b, d, []string{"a", "b", "c"}) != nil {
		t.Fatalf("valid spec rejected: %v", validate(b, d, []string{"a", "b", "c"}))
	}
	bound := 0.1
	for _, c := range []struct {
		want   string
		mutate func(*benchSpec, *designSpec)
	}{
		{"does not match", func(b *benchSpec, d *designSpec) { b.PerLayer[0].Name = "x y" }},
		{"does not match", func(b *benchSpec, d *designSpec) { b.Workloads[0].Name = "-a" }},
		{"used twice", func(b *benchSpec, d *designSpec) { b.Workloads[1].Name = "a" }},
		{"not one the benchmark runs", func(b *benchSpec, d *designSpec) { b.Workloads[1].Name = "d" }},
		{"17 end-to-end metrics", func(b *benchSpec, d *designSpec) {
			for i := 0; len(b.EndToEnd) < 17; i++ {
				b.EndToEnd = append(b.EndToEnd, metricSpec{Name: fmt.Sprintf("m%d", i), Unit: "s", Better: "lower", Bound: &bound})
			}
		}},
		{"129 per-layer metrics", func(b *benchSpec, d *designSpec) {
			for i := 0; len(b.PerLayer) < 129; i++ {
				name := fmt.Sprintf("l.m%d", i)
				b.PerLayer = append(b.PerLayer, metricSpec{Name: name, Unit: "count", Better: "lower"})
				d.Predictions = append(d.Predictions, prediction{Layer: name, Moves: "lat_us", Workload: "a"})
			}
		}},
		{"no prediction", func(b *benchSpec, d *designSpec) { d.Predictions = nil }},
		{"unknown end-to-end metric", func(b *benchSpec, d *designSpec) { d.Predictions[0].Moves = "nope" }},
		{"does not list", func(b *benchSpec, d *designSpec) { d.Predictions[0].Workload = "nope" }},
		// c runs but is not gated, so no prediction may rest on it.
		{"does not list", func(b *benchSpec, d *designSpec) { d.Predictions[0].Workload = "c" }},
		{"unknown per-layer metric", func(b *benchSpec, d *designSpec) {
			d.Predictions = append(d.Predictions, prediction{Layer: "nope", Moves: "lat_us", Workload: "a"})
		}},
		{"bound must be", func(b *benchSpec, d *designSpec) { big := 0.3; b.EndToEnd[1].Bound = &big }},
		{"lack setup_s", func(b *benchSpec, d *designSpec) { b.EndToEnd[0].Name = "set_up" }},
		{"unit", func(b *benchSpec, d *designSpec) { b.EndToEnd[1].Unit = "µs" }},
		{"one line", func(b *benchSpec, d *designSpec) { b.Workloads[0].Why = "two\nlines" }},
	} {
		b, d := validSpec()
		c.mutate(b, d)
		err := validate(b, d, []string{"a", "b", "c"})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("want error containing %q, got %v", c.want, err)
		}
	}
}
