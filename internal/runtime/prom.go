package runtime

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/telemetry"
	"repro/internal/telemetry/recorder"
)

// WritePrometheus exports every PE of the world in the Prometheus text
// exposition format, one series per PE via the pe label: the Stats
// counters (statCounters plus the per-reason flush and per-kind health
// families), the flight recorder's latency histograms as cumulative le
// buckets in seconds, and the unacked wire-frame gauge. Every source is
// always on, so no telemetry session is needed; all reads are atomics,
// so it is safe to call while the world runs.
func (w *World) WritePrometheus(out io.Writer) error {
	env := w.env
	stats := make([]Stats, len(env.worlds))
	for pe, pw := range env.worlds {
		stats[pe] = pw.Stats()
	}
	bw := bufio.NewWriter(out)
	family := func(name, typ, help string) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	for _, c := range statCounters {
		name := "lamellar_" + c.name + "_total"
		family(name, "counter", c.help)
		for pe := range stats {
			fmt.Fprintf(bw, "%s{pe=\"%d\"} %s\n", name, pe, strconv.FormatFloat(c.value(&stats[pe]), 'f', -1, 64))
		}
	}
	labeled := func(name, help, label string, key func(int) string, counts func(*Stats) []uint64) {
		family(name, "counter", help)
		for pe := range stats {
			for i, n := range counts(&stats[pe]) {
				fmt.Fprintf(bw, "%s{pe=\"%d\",%s=\"%s\"} %d\n", name, pe, label, key(i), n)
			}
		}
	}
	flushReason := func(i int) string { return telemetry.FlushReason(i).String() }
	labeled("lamellar_batch_flushes_total", "Wire batches by flush reason.", "reason", flushReason,
		func(s *Stats) []uint64 { return s.BatchFlushReasons[:] })
	labeled("lamellar_agg_flushes_total", "Array element-op buffers by flush reason.", "reason", flushReason,
		func(s *Stats) []uint64 { return s.AggFlushReasons[:] })
	labeled("lamellar_health_flags_total", "Stall-watchdog findings by kind.", "kind",
		func(i int) string { return telemetry.HealthKind(i).String() },
		func(s *Stats) []uint64 { return s.Health[:] })

	for id := recorder.HistID(0); id < recorder.NumHists; id++ {
		name := "lamellar_" + strings.TrimSuffix(id.String(), "_ns") + "_seconds"
		family(name, "histogram", "Flight-recorder latency histogram (log2 ns buckets).")
		for pe := range stats {
			h := env.rec.PE(pe).Hist(id)
			// +Inf and _count are both the bucket total, so they agree
			// even while samples land concurrently.
			var cum uint64
			for i, n := range h.Buckets() {
				cum += n
				if n == 0 {
					continue // keep the dump compact: only buckets that moved
				}
				fmt.Fprintf(bw, "%s_bucket{pe=\"%d\",le=\"%g\"} %d\n",
					name, pe, float64(telemetry.BucketUpper(i))/1e9, cum)
			}
			fmt.Fprintf(bw, "%s_bucket{pe=\"%d\",le=\"+Inf\"} %d\n", name, pe, cum)
			fmt.Fprintf(bw, "%s_sum{pe=\"%d\"} %g\n", name, pe, float64(h.Sum())/1e9)
			fmt.Fprintf(bw, "%s_count{pe=\"%d\"} %d\n", name, pe, cum)
		}
	}

	family("lamellar_wire_unacked_frames", "gauge", "Unacked reliable-wire frames at the last watchdog sample.")
	for pe := range stats {
		now, _ := env.rec.PE(pe).Unacked()
		fmt.Fprintf(bw, "lamellar_wire_unacked_frames{pe=\"%d\"} %d\n", pe, now)
	}
	return bw.Flush()
}
