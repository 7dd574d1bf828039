package main

import (
	"fmt"
	"math"
	goruntime "runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/fabric"
	"repro/internal/runtime"
	"repro/internal/telemetry"
)

// Every workload runs 2 PEs x 1 worker per PE in one process.
const (
	numPEs       = 2
	workersPerPE = 1
	// segments is how many times an untraced run sets up and measures a
	// workload, each time in a new world (see endToEnd).
	segments = 10
	// idleWindow is the quiescent window after each timed segment over
	// which idle CPU is measured.
	idleWindow = 400 * time.Millisecond
)

// epoch anchors the benchmark clock. All PEs share the process, so stamps
// taken on different PEs are comparable.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// cpuTime is the process's user + system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func worldConfig(l runtime.LamellaeKind, faults *fabric.FaultPlan) runtime.Config {
	return runtime.Config{PEs: numPEs, WorkersPerPE: workersPerPE, Lamellae: l, Faults: faults, TuneMode: "off"}
}

// runOpts are the settings of one workload run.
type runOpts struct {
	seed  uint64
	timed time.Duration // length of the timed phase
	tr    *tracer       // nil when untraced
}

// measurement is what one workload run observed.
type measurement struct {
	setupS    float64 // set-up time of the measured world
	attempted int
	failed    int
	ops       float64 // completed operations in the timed phase
	wall      time.Duration
	cpu       time.Duration
	latNs     []int64 // raw latency samples, sorted
	lat       latSummary
	// layer holds per-layer metrics taken from outside: counter deltas and
	// the benchmark's own timing wrappers.
	layer map[string]float64
	// named is the workload's view under the metric names it is usually
	// discussed by (rtt_p50_us, histo_mups, ...), for the report.
	named []namedValue
	// violations describes failed correctness checks (the first few).
	violations []string
}

type namedValue struct {
	name, unit string
	v          float64
}

func (m *measurement) violate(format string, args ...any) {
	m.failed++
	if len(m.violations) < 8 {
		m.violations = append(m.violations, fmt.Sprintf(format, args...))
	}
}

// runWorld builds a world in which every PE runs setup and then body. It
// returns the set-up time in seconds, from runtime.Run entry until both PEs
// have finished set-up.
func runWorld(cfg runtime.Config, setup, body func(w *runtime.World)) (float64, error) {
	var setupS float64
	start := time.Now()
	err := runtime.Run(cfg, func(w *runtime.World) {
		setup(w)
		w.Barrier()
		if w.MyPE() == 0 {
			setupS = time.Since(start).Seconds()
		}
		body(w)
		w.Barrier()
	})
	return setupS, err
}

// snapshot is the state read at either end of the timed phase.
type snapshot struct {
	t   time.Time
	cpu time.Duration
	st  [numPEs]runtime.Stats
	mem goruntime.MemStats
}

func takeSnapshot(w *runtime.World) snapshot {
	var s snapshot
	goruntime.ReadMemStats(&s.mem)
	for pe := range s.st {
		s.st[pe] = w.PeerWorld(pe).Stats()
	}
	s.cpu = cpuTime()
	s.t = time.Now()
	return s
}

// measureIdle sleeps through the quiescent window and returns process CPU
// over it as a percentage of one core.
func measureIdle() float64 {
	c0, t0 := cpuTime(), time.Now()
	time.Sleep(idleWindow)
	return 100 * float64(cpuTime()-c0) / float64(time.Since(t0))
}

// finish records the timed phase between a and b and the counter-derived
// per-layer metrics, with ops completed operations.
func (m *measurement) finish(a, b snapshot, ops float64) {
	m.ops = ops
	m.wall = b.t.Sub(a.t)
	m.cpu = b.cpu - a.cpu
	var d runtime.Stats
	for pe := range a.st {
		x, y := a.st[pe], b.st[pe]
		d.EnvelopesSent += y.EnvelopesSent - x.EnvelopesSent
		d.BatchesSent += y.BatchesSent - x.BatchesSent
		for r := range d.BatchFlushReasons {
			d.BatchFlushReasons[r] += y.BatchFlushReasons[r] - x.BatchFlushReasons[r]
		}
		d.AggBatchesFlushed += y.AggBatchesFlushed - x.AggBatchesFlushed
		d.AggOpsCoalesced += y.AggOpsCoalesced - x.AggOpsCoalesced
		d.WireRetries += y.WireRetries - x.WireRetries
		d.WireTimeouts += y.WireTimeouts - x.WireTimeouts
		d.WireDupDropped += y.WireDupDropped - x.WireDupDropped
		d.WireOutOfOrder += y.WireOutOfOrder - x.WireOutOfOrder
		d.WireAcksSent += y.WireAcksSent - x.WireAcksSent
		d.PoolExecuted += y.PoolExecuted - x.PoolExecuted
		d.PoolParks += y.PoolParks - x.PoolParks
		d.PoolBusy += y.PoolBusy - x.PoolBusy
		d.Fabric.Add(y.Fabric.Sub(x.Fabric))
	}
	f := func(v uint64) float64 { return float64(v) }
	l := m.layer
	l["am.envs_per_batch"] = ratio(f(d.EnvelopesSent), f(d.BatchesSent))
	l["am.timer_flush_share"] = ratio(f(d.BatchFlushReasons[telemetry.FlushTimer]), f(d.BatchesSent))
	l["wire.retx_share"] = ratio(f(d.WireRetries), f(d.BatchesSent+d.WireRetries))
	l["wire.acks_per_batch"] = ratio(f(d.WireAcksSent), f(d.BatchesSent))
	l["wire.dup_dropped"] = f(d.WireDupDropped)
	l["wire.ooo_held"] = f(d.WireOutOfOrder)
	l["wire.timeouts"] = f(d.WireTimeouts)
	l["array.ops_per_batch"] = ratio(f(d.AggOpsCoalesced), f(d.AggBatchesFlushed))
	l["sched.busy_frac"] = ratio(d.PoolBusy.Seconds(), m.wall.Seconds()*numPEs*workersPerPE)
	l["sched.parks_per_op"] = ratio(f(d.PoolParks), ops)
	l["sched.tasks_per_op"] = ratio(f(d.PoolExecuted), ops)
	l["fabric.msgs_per_op"] = ratio(f(d.Fabric.Msgs), ops)
	l["fabric.bytes_per_op"] = ratio(f(d.Fabric.Bytes), ops)
	l["fabric.modeled_us_per_op"] = ratio(f(d.Fabric.ModeledNs)/1e3, ops)
	l["go.allocs_per_op"] = ratio(f(b.mem.Mallocs-a.mem.Mallocs), ops)
	l["go.gc_cycles"] = float64(b.mem.NumGC - a.mem.NumGC)
	l["go.gc_pause_ms"] = f(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
	l["proc.cpu_util"] = ratio(m.cpu.Seconds(), m.wall.Seconds())
}

// endToEnd returns the end-to-end metrics of a run made of segments, each
// measured in a world of its own. Set-up time is the median over segments;
// every other metric pools the segments' work, so that a run measures all
// of it: latency percentiles come from all samples, CPU per op from all CPU
// time and ops, throughput from all completed ops over all timed wall
// time.
func endToEnd(seg []*measurement) map[string]float64 {
	var setups []float64
	var samples []int64
	var ops, wall, cpu float64
	for _, m := range seg {
		setups = append(setups, m.setupS)
		samples = append(samples, m.latNs...)
		ops += m.ops
		wall += m.wall.Seconds()
		cpu += m.cpu.Seconds()
	}
	lat := summarize(samples)
	return map[string]float64{
		"setup_s":         median(setups),
		"throughput_kops": ratio(ops/1e3, wall),
		"lat_p50_us":      lat.P50.US,
		"lat_p90_us":      lat.P90.US,
		"cpu_us_per_op":   ratio(cpu*1e6, ops),
	}
}

// rng is SplitMix64, the benchmark's own input generator, so that inputs
// depend only on the seed and not on any program code.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n) for 0 < n < 2^32.
func (r *rng) intn(n int) int { return int((r.next() >> 32) * uint64(n) >> 32) }

// zipf draws keys in [0, n) whose popularity ranks follow a Zipf law with
// exponent s. Ranks map to keys through a seeded bijection so the hot keys
// spread over the key space instead of sitting on one PE.
type zipf struct {
	cdf       []float64
	mult, off int
}

func newZipf(n int, s float64, r *rng) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	z.mult = 2*r.intn(n/2) + 1 // odd, so coprime with a power-of-two n
	for gcd(z.mult, n) != 1 {
		z.mult += 2
	}
	z.off = r.intn(n)
	return z
}

func (z *zipf) next(r *rng) int {
	u := r.float64()
	rank := sort.SearchFloat64s(z.cdf, u)
	if rank >= len(z.cdf) {
		rank = len(z.cdf) - 1
	}
	return (rank*z.mult + z.off) % len(z.cdf)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
