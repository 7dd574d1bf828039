// Command perfbench is the repository's benchmark. Its workloads drive the
// runtime, array, kv, scheduler and fabric layers through their exported
// API only; BENCHMARK.json gates the ones that measure steadily on a
// shared 2-CPU host. End-to-end metrics come from untraced runs; per-layer
// metrics come from World.Stats counter deltas, the benchmark's own timing
// wrappers, and a traced run whose spans give each layer's self time.
//
// Run it from the repository root, where it reads BENCHMARK.json and
// perfbench/design.json, through perfbench/run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload pingpong --seed 1 --seconds 10 --trace 0
//
// --workload all (the default) runs every workload. The output is a report
// per workload; its last line is one JSON object with the keys correct,
// attempted, failed and metrics. The exit code is 0 when every correctness
// check passed, 1 when one failed and 2 when the run could not be made.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

type workloadDef struct {
	name string
	run  func(runOpts) (*measurement, error)
	// issue names the span of the AM launch that handler spans on the
	// receiving PE are parented to ("" when the workload sends no AMs
	// itself).
	issue string
}

var workloadDefs = []workloadDef{
	{"pingpong", runPingpong, "runtime.exec_am_return"},
	{"bulk", runBulk, ""},
	{"kv-zipf", runKV, ""},
	{"stream-faulted", runStream, "runtime.exec_am"},
}

// traceLayers are the layers whose self-time share a traced run reports.
var traceLayers = []string{"req", "runtime", "array", "kv", "scheduler", "handler"}

// traceCapacity bounds the spans one traced run keeps in memory.
const traceCapacity = 1 << 20

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func workloadNames() []string {
	var names []string
	for _, d := range workloadDefs {
		names = append(names, d.name)
	}
	return names
}

// outcome is one workload's contribution to the JSON result line.
type outcome struct {
	attempted, failed int
	values            map[string]float64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed every workload input is generated from")
	seconds := fs.Float64("seconds", 10, "length of one workload's measurement in seconds")
	traceFlag := fs.Int("trace", 0, "1 alternates untraced and traced segments and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	traced := *traceFlag == 1
	if *traceFlag != 0 && !traced {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	// Each of the segments needs its quiescent window and at least half a
	// second of timed work.
	if minimum := segments * (idleWindow.Seconds() + 0.5); *seconds < minimum {
		fmt.Fprintf(stderr, "perfbench: --seconds must be at least %g\n", minimum)
		return 2
	}
	spec, err := loadSpecs(".", workloadNames())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	var defs []workloadDef
	for _, d := range workloadDefs {
		if *workload == "all" || *workload == d.name {
			defs = append(defs, d)
		}
	}
	if len(defs) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	// Span files go where run.sh puts the build.
	traceDir := os.Getenv("CARGO_TARGET_DIR")
	if traceDir == "" {
		traceDir = ".bench_build"
	}
	// Runtime knobs read from LAMELLAR_* variables would change what is
	// measured; the workloads set everything they depend on explicitly.
	for _, kv := range os.Environ() {
		if name, _, _ := strings.Cut(kv, "="); strings.HasPrefix(name, "LAMELLAR_") {
			os.Unsetenv(name)
		}
	}

	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{Metrics: map[string]metricOut{}}
	for _, d := range defs {
		o := runOpts{seed: *seed}
		var oc *outcome
		if traced {
			oc, err = measureTraced(d, o, *seconds, traceDir, stdout, stderr)
		} else {
			oc, err = measureUntraced(d, o, *seconds, stdout, stderr)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", d.name, err)
			return 2
		}
		result.Attempted += oc.attempted
		result.Failed += oc.failed
		for _, ms := range want {
			v, ok := oc.values[ms.Name]
			if !ok && !traced {
				fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", d.name, ms.Name)
				return 2
			}
			// A per-layer metric a workload does not reach reads 0: that
			// layer did no such work on it.
			name := ms.Name
			if len(defs) > 1 {
				name = d.name + "." + name
			}
			result.Metrics[name] = metricOut{v, ms.Unit}
		}
	}
	if result.Attempted == 0 {
		fmt.Fprintf(stderr, "perfbench: no operation was attempted\n")
		return 2
	}
	result.Correct = result.Failed == 0
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !result.Correct {
		return 1
	}
	return 0
}

// measureUntraced runs the workload in segments, each in a world of its
// own, and reports the end-to-end metrics over all of them (see endToEnd):
// a world can settle into a slower or faster mode, and a run that spans
// many worlds is steadier than one world measured for longer.
func measureUntraced(d workloadDef, o runOpts, seconds float64, out, errOut io.Writer) (*outcome, error) {
	o.timed = time.Duration((seconds/segments - idleWindow.Seconds()) * float64(time.Second))
	activeTracer = nil
	fmt.Fprintf(out, "== %s: seed %d, %d segments of %.2f s timed, untraced\n", d.name, o.seed, segments, o.timed.Seconds())
	oc := &outcome{}
	var seg []*measurement
	for i := 0; i < segments; i++ {
		m, err := d.run(o)
		if err != nil {
			return nil, err
		}
		seg = append(seg, m)
		oc.attempted += m.attempted
		oc.failed += m.failed
	}
	oc.values = runValues(seg)
	report(out, errOut, seg, oc.values)
	return oc, nil
}

// runValues is endToEnd over the segments plus the median over segments of
// each value a workload reports under its own name.
func runValues(seg []*measurement) map[string]float64 {
	out := endToEnd(seg)
	named := map[string][]float64{}
	for _, m := range seg {
		for _, n := range m.named {
			named[n.name] = append(named[n.name], n.v)
		}
	}
	for k, vs := range named {
		out[k] = median(vs)
	}
	return out
}

// tracePairs is how many untraced and how many traced segments a traced
// run alternates.
const tracePairs = 3

// measureTraced alternates untraced and traced segments, each in a world
// of its own. The untraced ones give the counter and wrapper metrics, as
// the median over segments of each; the traced ones give the layer
// self-time shares. The tracing overhead compares the median latency of
// all traced samples with that of all untraced ones, so that neither side
// rests on the mode one world settled into.
func measureTraced(d workloadDef, o runOpts, seconds float64, dir string, out, errOut io.Writer) (*outcome, error) {
	o.timed = time.Duration((seconds/(2*tracePairs) - idleWindow.Seconds()) * float64(time.Second))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("perfbench-trace-%s.tsv", d.name))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sw := newSpanWriter(f)
	tr := newTracer(traceCapacity)
	var plain, traced []*measurement
	self := make(map[string]int64)
	var e2e, nspans, dropped int64
	for i := 0; i < tracePairs; i++ {
		o.tr, activeTracer = nil, nil
		m, err := d.run(o)
		if err != nil {
			return nil, err
		}
		plain = append(plain, m)
		tr.reset()
		o.tr, activeTracer = tr, tr
		m, err = d.run(o)
		activeTracer = nil
		if err != nil {
			return nil, err
		}
		traced = append(traced, m)
		spans := tr.recorded()
		if d.issue != "" {
			linkHandlers(spans, d.issue)
		}
		s, e := selfTimes(spans)
		for l, v := range s {
			self[l] += v
		}
		e2e += e
		nspans += int64(len(spans))
		dropped += tr.dropped.Load()
		sw.write(i, spans)
	}
	if err := sw.close(); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	vals := make(map[string]float64)
	for name := range plain[0].layer {
		var vs []float64
		for _, m := range plain {
			vs = append(vs, m.layer[name])
		}
		vals[name] = median(vs)
	}
	plainLat, tracedLat := pooledLatency(plain), pooledLatency(traced)
	vals["req.lat_p99_us"] = plainLat.P99.US
	for _, l := range traceLayers {
		vals["trace."+l+".self_share"] = ratio(float64(self[l]), float64(e2e))
	}
	vals["trace.overhead_pct"] = 100 * ratio(tracedLat.P50.US-plainLat.P50.US, plainLat.P50.US)
	vals["trace.spans"] = float64(nspans)

	fmt.Fprintf(out, "== %s: seed %d, %d untraced and %d traced segments of %.2f s timed, alternating\n",
		d.name, o.seed, tracePairs, tracePairs, o.timed.Seconds())
	report(out, errOut, plain, runValues(plain))
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(out, "   %-28s %.6g\n", n, vals[n])
	}
	fmt.Fprintf(out, "   trace: %d spans (%d dropped) over %.3f s end to end; self time by layer:",
		nspans, dropped, float64(e2e)/1e9)
	for _, l := range traceLayers {
		fmt.Fprintf(out, " %s %.1f%%", l, 100*vals["trace."+l+".self_share"])
	}
	fmt.Fprintf(out, "\n   trace overhead: lat_p50_us %.1f us traced vs %.1f us untraced (%+.1f%%)\n",
		tracedLat.P50.US, plainLat.P50.US, vals["trace.overhead_pct"])
	fmt.Fprintf(out, "   spans written to %s\n", path)
	oc := &outcome{values: vals}
	for _, m := range append(plain, traced...) {
		oc.attempted += m.attempted
		oc.failed += m.failed
	}
	for _, m := range traced {
		for _, v := range m.violations {
			fmt.Fprintf(errOut, "perfbench: correctness: %s\n", v)
		}
	}
	return oc, nil
}

// pooledLatency summarizes the latency samples of all segments together.
func pooledLatency(seg []*measurement) latSummary {
	var samples []int64
	for _, m := range seg {
		samples = append(samples, m.latNs...)
	}
	return summarize(samples)
}

// report prints a workload's end-to-end metrics by name with units, each
// with its per-segment values or the sample counts behind it, then the
// violations of correctness checks.
func report(out, errOut io.Writer, seg []*measurement, e2e map[string]float64) {
	line := func(name, unit, note string) {
		fmt.Fprintf(out, "   %-16s %12.4f %-6s %s\n", name, e2e[name], unit, note)
	}
	each := func(f func(m *measurement) float64) string {
		var b strings.Builder
		for i, m := range seg {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%.5g", f(m))
		}
		return "segments: " + b.String()
	}
	var failed, attempted int
	for _, m := range seg {
		failed += m.failed
		attempted += m.attempted
	}
	lat := pooledLatency(seg)
	one := func(m *measurement) map[string]float64 { return endToEnd([]*measurement{m}) }
	line("setup_s", "s", each(func(m *measurement) float64 { return m.setupS }))
	line("throughput_kops", "kop/s", each(func(m *measurement) float64 { return one(m)["throughput_kops"] }))
	line("lat_p50_us", "us", fmt.Sprintf("%d samples, %d beyond; %s", lat.N, lat.P50.Beyond, each(func(m *measurement) float64 { return m.lat.P50.US })))
	line("lat_p90_us", "us", fmt.Sprintf("%d beyond; %s", lat.P90.Beyond, each(func(m *measurement) float64 { return m.lat.P90.US })))
	fmt.Fprintf(out, "   %-16s %12.4f %-6s %d beyond; diagnostic, no bound\n", "lat_p99_us", lat.P99.US, "us", lat.P99.Beyond)
	line("cpu_us_per_op", "us", each(func(m *measurement) float64 { return one(m)["cpu_us_per_op"] }))
	var idle []float64
	for _, m := range seg {
		idle = append(idle, m.layer["proc.idle_cpu_pct"])
	}
	fmt.Fprintf(out, "   %-16s %12.4f %-6s of one core, median over %v quiescent windows; diagnostic, no bound; %s\n",
		"idle_cpu_pct", median(idle), "%", idleWindow, each(func(m *measurement) float64 { return m.layer["proc.idle_cpu_pct"] }))
	fmt.Fprintf(out, "   %-16s %12.4g %-6s %d of %d\n", "fail_frac", ratio(float64(failed), float64(attempted)), "ratio", failed, attempted)
	for _, nv := range seg[0].named {
		line(nv.name, nv.unit, "")
	}
	for _, m := range seg {
		for _, v := range m.violations {
			fmt.Fprintf(errOut, "perfbench: correctness: %s\n", v)
		}
	}
}
