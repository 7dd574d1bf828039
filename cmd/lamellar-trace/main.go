// Command lamellar-trace runs one kernel implementation under a fabric
// trace hook and prints its communication profile: operation counts, a
// message-size histogram, and the PE×PE traffic matrix. Use it to see
// why an implementation performs the way it does (e.g. the Conveyors
// two-hop matrix vs. Exstack's dense all-to-all).
//
//	lamellar-trace -kernel histo -impl lamellar-am -cores 16
//	lamellar-trace -kernel randperm -impl conveyor -cores 16
//
// With -timeline the kernel additionally runs under the runtime's
// telemetry subsystem and exports a Chrome trace-event JSON timeline —
// open it at ui.perfetto.dev (or chrome://tracing) to see one track per
// PE×worker of task, AM, aggregation, and fabric activity. -metrics
// appends the world's Prometheus text dump (World.WritePrometheus:
// Stats counters, flight-recorder latency histograms and health counts
// of every PE), written on PE 0 before the world exits; it needs no
// -timeline:
//
//	lamellar-trace -kernel histo -timeline /tmp/histo.json -metrics
//
// With -critical-path the command instead runs an aggregated fetch-add
// round-trip workload under causal tracing, exports the flow-linked
// timeline, and decomposes each AM round trip into queue / encode /
// wire (incl. retransmissions) / exec / return segments reconstructed
// from the trace's cross-PE flow links:
//
//	lamellar-trace -critical-path -cores 8 -timeline /tmp/critpath.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bale/kernels"
	"repro/internal/bench"
)

func main() {
	var (
		kernel   = flag.String("kernel", "histo", "histo | ig | randperm")
		impl     = flag.String("impl", "lamellar-am", "implementation name (see lamellar-bench)")
		cores    = flag.Int("cores", 16, "core count")
		updates  = flag.Int("updates", 20_000, "updates/requests per core")
		bufI     = flag.Int("buf", 2_000, "aggregation buffer limit in operations")
		workers  = flag.Int("workers", 4, "threads per multithreaded PE")
		timeline = flag.String("timeline", "", "write a Perfetto-loadable Chrome trace-event JSON timeline to this path")
		metrics  = flag.Bool("metrics", false, "print the world's Prometheus dump (Stats counters, recorder latency histograms, health counts) taken on PE 0 before exit")
		critPath = flag.Bool("critical-path", false, "run an aggregated fetch-add workload and decompose round-trip latency from the flow-linked trace")
		ops      = flag.Int("ops", 256, "awaited fetch-adds per PE in -critical-path mode")
	)
	flag.Parse()
	if *critPath {
		path := *timeline
		if path == "" {
			path = "/tmp/lamellar-critpath.json"
		}
		pes := *cores / max(1, *workers)
		if pes < 2 {
			pes = 2
		}
		if err := bench.RunCriticalPath(pes, *workers, *ops, path, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "lamellar-trace:", err)
			os.Exit(1)
		}
		return
	}
	cfg := bench.KernelFigConfig{
		Params: kernels.Params{
			TablePerPE:   1000,
			UpdatesPerPE: *updates,
			BufItems:     *bufI,
			DartsPerPE:   *updates / 2,
			TargetFactor: 2,
			Seed:         0xBA1E,
		},
		WorkersPerPE: *workers,
	}
	opts := bench.TraceOpts{Timeline: *timeline, Metrics: *metrics}
	if err := bench.RunTraceOpts(*kernel, *impl, *cores, cfg, os.Stdout, opts); err != nil {
		fmt.Fprintln(os.Stderr, "lamellar-trace:", err)
		os.Exit(1)
	}
}
