package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"os"
	"sync"
	"time"

	"repro/internal/bale/kernels"
	"repro/internal/fabric"
	"repro/internal/runtime"
	"repro/internal/telemetry"
)

// Trace collects a communication profile from the fabric hook: operation
// counts by kind, a log2 message-size histogram, and a PE×PE traffic
// matrix. It is the runtime-engineer's view of what a kernel does on the
// wire — the data behind statements like "small message all-to-all" in
// §IV-B1 — and backs the lamellar-trace command.
type Trace struct {
	mu      sync.Mutex
	npes    int
	kinds   [4]uint64
	kindsB  [4]uint64
	modeled [4]uint64  // summed modeled ns by op kind
	sizeLog [32]uint64 // histogram buckets: [2^i, 2^(i+1))
	matrix  []uint64   // npes*npes bytes moved
}

// NewTrace creates a collector for a world of npes PEs.
func NewTrace(npes int) *Trace {
	return &Trace{npes: npes, matrix: make([]uint64, npes*npes)}
}

// Hook returns the fabric hook feeding this collector.
func (t *Trace) Hook() fabric.Hook {
	return func(ev fabric.OpEvent) {
		t.mu.Lock()
		t.kinds[ev.Kind]++
		t.kindsB[ev.Kind] += uint64(ev.Bytes)
		t.modeled[ev.Kind] += ev.ModeledNs
		if ev.Bytes > 0 {
			t.sizeLog[bits.Len(uint(ev.Bytes))-1]++
		}
		if ev.Initiator < t.npes && ev.Target < t.npes {
			t.matrix[ev.Initiator*t.npes+ev.Target] += uint64(ev.Bytes)
		}
		t.mu.Unlock()
	}
}

// Ops reports the operation count of one kind.
func (t *Trace) Ops(kind fabric.OpKind) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.kinds[kind]
}

// TotalBytes reports all payload bytes observed.
func (t *Trace) TotalBytes() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n uint64
	for _, b := range t.kindsB {
		n += b
	}
	return n
}

// MatrixBytes reports bytes moved from src to dst.
func (t *Trace) MatrixBytes(src, dst int) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.matrix[src*t.npes+dst]
}

// Render writes a human-readable communication profile.
func (t *Trace) Render(out io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()

	fmt.Fprintf(out, "\n# communication profile (%d PEs)\n", t.npes)
	fmt.Fprintf(out, "%-10s %12s %14s %14s\n", "op", "count", "bytes", "modeled")
	for k := fabric.OpPut; k <= fabric.OpBarrier; k++ {
		fmt.Fprintf(out, "%-10s %12d %14d %14v\n", k, t.kinds[k], t.kindsB[k], time.Duration(t.modeled[k]))
	}

	fmt.Fprintf(out, "\nmessage-size histogram (log2 buckets)\n")
	hi := 0
	for i, c := range t.sizeLog {
		if c > 0 {
			hi = i
		}
	}
	var maxC uint64
	for _, c := range t.sizeLog[:hi+1] {
		if c > maxC {
			maxC = c
		}
	}
	for i := 0; i <= hi; i++ {
		c := t.sizeLog[i]
		barLen := 0
		if maxC > 0 {
			barLen = int(c * 40 / maxC)
		}
		fmt.Fprintf(out, "%8d-%-8d %10d %s\n", 1<<i, 1<<(i+1)-1, c, bar(barLen))
	}

	if t.npes <= 16 {
		fmt.Fprintf(out, "\ntraffic matrix (KB, src rows -> dst cols)\n      ")
		for d := 0; d < t.npes; d++ {
			fmt.Fprintf(out, "%8d", d)
		}
		fmt.Fprintln(out)
		for s := 0; s < t.npes; s++ {
			fmt.Fprintf(out, "PE%-4d", s)
			for d := 0; d < t.npes; d++ {
				fmt.Fprintf(out, "%8d", t.matrix[s*t.npes+d]/1024)
			}
			fmt.Fprintln(out)
		}
	}
}

func bar(n int) string {
	const full = "########################################"
	if n > len(full) {
		n = len(full)
	}
	return full[:n]
}

// TraceOpts selects the optional telemetry outputs of a trace run.
type TraceOpts struct {
	// Timeline, when non-empty, runs the kernel with the telemetry
	// subsystem enabled and writes the Chrome trace-event JSON timeline
	// (Perfetto-loadable) to this path, validating that it parses.
	Timeline string
	// Metrics, when set, appends the world's Prometheus text dump
	// (World.WritePrometheus: Stats counters, flight-recorder histograms
	// and health counts of every PE) to the output writer. It needs no
	// telemetry session.
	Metrics bool
}

// RunTrace executes one kernel implementation under the trace collector
// and renders the profile.
func RunTrace(fig, impl string, cores int, cfg KernelFigConfig, out io.Writer) error {
	return RunTraceOpts(fig, impl, cores, cfg, out, TraceOpts{})
}

// RunTraceOpts is RunTrace plus the telemetry outputs selected by opts.
func RunTraceOpts(fig, impl string, cores int, cfg KernelFigConfig, out io.Writer, opts TraceOpts) error {
	cfg = cfg.WithDefaults()
	var k kernels.KernelFunc
	var ok bool
	switch fig {
	case "histo":
		k, ok = kernelsHistogram()[impl]
		if !ok {
			return fmt.Errorf("bench: unknown histogram implementation %q", impl)
		}
	case "ig":
		k, ok = kernelsIndexGather()[impl]
		if !ok {
			return fmt.Errorf("bench: unknown indexgather implementation %q", impl)
		}
	case "randperm":
		k, ok = kernelsRandperm()[impl]
		if !ok {
			return fmt.Errorf("bench: unknown randperm implementation %q", impl)
		}
	default:
		return fmt.Errorf("bench: unknown kernel %q", fig)
	}
	return traceOne(k, impl, cores, cfg, out, opts)
}

// kernel map accessors keep the import local to this file's users.
func kernelsHistogram() map[string]kernels.KernelFunc   { return kernels.Histogram }
func kernelsIndexGather() map[string]kernels.KernelFunc { return kernels.IndexGather }
func kernelsRandperm() map[string]kernels.KernelFunc    { return kernels.Randperm }

// traceOne runs impl once with the collector installed.
func traceOne(fn kernels.KernelFunc, name string, cores int, cfg KernelFigConfig, out io.Writer, opts TraceOpts) error {
	cpp := coresPerPE(name, cores, cfg.WorkersPerPE)
	pes := cores / cpp
	if pes < 1 {
		pes = 1
	}
	params := scalePerCore(cfg.Params, cpp)
	workers := 1
	if cpp > 1 {
		workers = cpp
	}
	rcfg := runtime.Config{
		PEs:            pes,
		WorkersPerPE:   workers,
		Lamellae:       runtime.LamellaeSim,
		Cost:           fabric.DefaultCostModel(),
		ArrayBatchSize: params.BufItems,
		Telemetry:      opts.Timeline != "",
	}
	// Own the telemetry session here rather than letting the world own
	// it: the rings must survive runtime.Run so they can be exported (and
	// the written timeline validated) at full quiescence.
	var tc *telemetry.Collector
	if opts.Timeline != "" {
		var owned bool
		tc, owned = telemetry.StartGlobal(pes, 0)
		if owned {
			defer telemetry.StopGlobal(tc)
		}
	}
	tr := NewTrace(pes)
	var metrics bytes.Buffer
	var merr error
	err := runtime.Run(rcfg, func(w *runtime.World) {
		w.Barrier()
		if w.MyPE() == 0 {
			w.Provider().SetHook(tr.Hook())
		}
		w.Barrier()
		if kerr := fn(w, params, nil); kerr != nil {
			panic(kerr)
		}
		w.Barrier()
		if w.MyPE() == 0 {
			w.Provider().SetHook(nil)
			if opts.Metrics {
				merr = w.WritePrometheus(&metrics)
			}
		}
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "kernel=%s impl=%s cores=%d (PEs=%d x %d workers)\n", "trace", name, cores, pes, workers)
	tr.Render(out)
	if opts.Timeline != "" {
		n, flows, err := writeTimelineValidated(tc, opts.Timeline)
		if err != nil {
			return err
		}
		var dropped uint64
		for pe := 0; pe < tc.NumPEs(); pe++ {
			dropped += tc.Dropped(pe)
		}
		fmt.Fprintf(out, "\ntimeline: %s (%d events, %d flows, %d dropped)\n", opts.Timeline, n, flows, dropped)
	}
	if opts.Metrics {
		if merr != nil {
			return merr
		}
		fmt.Fprintf(out, "\n# runtime metrics\n")
		if _, err := metrics.WriteTo(out); err != nil {
			return err
		}
	}
	return nil
}

// writeTimelineValidated exports the collector's Chrome trace timeline to
// path, then re-reads and JSON-parses the file, returning the trace-event
// and causal-flow counts. A timeline Perfetto cannot load is an error,
// not a warning — and so is a flow graph with dangling references (a
// "t"/"f" step whose flow was never opened by an "s", or an exec/return
// span claiming a flow id no issue span carries).
func writeTimelineValidated(c *telemetry.Collector, path string) (int, int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	if err := c.WriteChromeTrace(f); err != nil {
		f.Close()
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		return 0, 0, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return 0, 0, fmt.Errorf("bench: timeline %s is not valid trace JSON: %w", path, err)
	}
	flows, err := validateTraceFlows(doc.TraceEvents)
	if err != nil {
		return 0, 0, fmt.Errorf("bench: timeline %s: %w", path, err)
	}
	return len(doc.TraceEvents), flows, nil
}

// flowEvent is the subset of a trace event the flow validator reads.
type flowEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	ID   *uint64 `json:"id"`
	Args struct {
		Flow uint64 `json:"flow"`
	} `json:"args"`
}

// validateTraceFlows checks the causal-flow graph of an exported
// timeline: every flow step ("t") and finish ("f") must reference a flow
// opened by a start ("s"), and every span annotated with a flow id
// (am.encode/am.exec/am.return) must belong to a flow some am.issue
// opened. Returns the number of distinct flows. The exporter's
// wraparound suppression is supposed to guarantee this; the validator is
// the check that it actually did.
func validateTraceFlows(events []json.RawMessage) (int, error) {
	opened := make(map[uint64]bool)
	var parsed []flowEvent
	for _, raw := range events {
		var ev flowEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			return 0, fmt.Errorf("unparseable trace event: %w", err)
		}
		if ev.Ph == "s" {
			if ev.ID == nil {
				return 0, fmt.Errorf("flow start %q has no id", ev.Name)
			}
			opened[*ev.ID] = true
		}
		parsed = append(parsed, ev)
	}
	for _, ev := range parsed {
		switch ev.Ph {
		case "t", "f":
			if ev.ID == nil {
				return 0, fmt.Errorf("flow event %q (ph=%s) has no id", ev.Name, ev.Ph)
			}
			if !opened[*ev.ID] {
				return 0, fmt.Errorf("dangling flow reference: %q (ph=%s) id=%d has no matching start", ev.Name, ev.Ph, *ev.ID)
			}
		}
		if ev.Args.Flow != 0 && !opened[ev.Args.Flow] {
			return 0, fmt.Errorf("dangling span reference: %q carries flow=%d but no am.issue opened it", ev.Name, ev.Args.Flow)
		}
	}
	return len(opened), nil
}
