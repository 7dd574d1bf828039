// Benchmarks regenerating the paper's figures as testing.B targets (the
// cmd/lamellar-bench CLI produces the full tables; these provide
// `go test -bench` entry points plus micro-benchmarks of the stack's
// layers). Wall-clock numbers here reflect the simulator host; the
// figure-shaped outputs come from the CLI's modeled metric.
package lamellar_test

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync/atomic"
	"testing"

	lamellar "repro"
	"repro/internal/bale/kernels"
	"repro/internal/fabric"
	"repro/internal/memregion"
	"repro/internal/runtime"
	"repro/internal/scheduler"
	"repro/internal/serde"
	"repro/internal/telemetry"
)

// benchParams keeps kernel benchmarks fast enough for -bench runs.
var benchParams = kernels.Params{
	TablePerPE:   1000,
	UpdatesPerPE: 20_000,
	BufItems:     2_000,
	DartsPerPE:   10_000,
	TargetFactor: 2,
	Seed:         0xBA1E,
}

func benchWorldCfg(pes int) runtime.Config {
	return runtime.Config{PEs: pes, WorkersPerPE: 2, Lamellae: runtime.LamellaeSim}
}

// runKernelBench executes a collective kernel b.N times inside one world.
func runKernelBench(b *testing.B, pes int, fn kernels.KernelFunc) {
	b.Helper()
	err := runtime.Run(benchWorldCfg(pes), func(w *runtime.World) {
		for i := 0; i < b.N; i++ {
			if kerr := fn(w, benchParams, nil); kerr != nil {
				panic(kerr)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(benchParams.UpdatesPerPE*pes*b.N), "updates")
}

// ----- Fig. 2: put-like bandwidth -----------------------------------------

func BenchmarkFig2PutBandwidth(b *testing.B) {
	const size = 64 << 10
	methods := []struct {
		name string
		run  func(w *runtime.World, buf []uint8, n int)
	}{
		{"rofi", func(w *runtime.World, buf []uint8, n int) {
			seg := w.Provider().AllocSegment(size, 0)
			defer w.Provider().FreeSegment(seg)
			for i := 0; i < n; i++ {
				w.Provider().Put(0, 1, seg, 0, buf)
			}
		}},
		{"memregion", func(w *runtime.World, buf []uint8, n int) {
			reg := fabric.AllocTyped[uint8](w.Provider(), size)
			sh := memregion.NewShared(w.Provider(), reg, 0)
			for i := 0; i < n; i++ {
				sh.Put(1, 0, buf)
			}
		}},
	}
	for _, m := range methods {
		m := m
		b.Run(m.name, func(b *testing.B) {
			err := runtime.Run(benchWorldCfg(2), func(w *runtime.World) {
				if w.MyPE() != 0 {
					return
				}
				buf := make([]uint8, size)
				b.ResetTimer()
				m.run(w, buf, b.N)
				b.StopTimer()
			})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(size)
		})
	}
}

func BenchmarkFig2ArrayPut(b *testing.B) {
	const size = 64 << 10
	kindsUnderTest := []string{"unsafe-unchecked", "unsafe", "locallock", "atomic"}
	for _, kind := range kindsUnderTest {
		kind := kind
		b.Run(kind, func(b *testing.B) {
			err := runtime.Run(benchWorldCfg(2), func(w *runtime.World) {
				buf := make([]uint8, size)
				switch kind {
				case "unsafe-unchecked", "unsafe":
					a := lamellar.NewUnsafeArray[uint8](w.Team(), 2*size, lamellar.Block)
					defer a.Drop()
					if w.MyPE() == 0 {
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if kind == "unsafe-unchecked" {
								a.PutUnchecked(size, buf)
							} else {
								a.Put(size, buf)
							}
						}
						w.WaitAll()
						b.StopTimer()
					}
				case "locallock":
					a := lamellar.NewLocalLockArray[uint8](w.Team(), 2*size, lamellar.Block)
					defer a.Drop()
					if w.MyPE() == 0 {
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							a.Put(size, buf)
						}
						w.WaitAll()
						b.StopTimer()
					}
				case "atomic":
					a := lamellar.NewAtomicArray[uint8](w.Team(), 2*size, lamellar.Block)
					defer a.Drop()
					if w.MyPE() == 0 {
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							a.Put(size, buf)
						}
						w.WaitAll()
						b.StopTimer()
					}
				}
				w.Barrier()
			})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(size)
		})
	}
}

// ----- Fig. 3: Histogram ----------------------------------------------------

func BenchmarkFig3Histogram(b *testing.B) {
	for _, name := range []string{"exstack", "exstack2", "conveyor", "selector", "chapel", "lamellar-am", "lamellar-array"} {
		name := name
		b.Run(name, func(b *testing.B) { runKernelBench(b, 4, kernels.Histogram[name]) })
	}
}

// ----- Fig. 4: IndexGather ---------------------------------------------------

func BenchmarkFig4IndexGather(b *testing.B) {
	for _, name := range []string{"exstack", "exstack2", "conveyor", "selector", "chapel", "lamellar-am", "lamellar-array"} {
		name := name
		b.Run(name, func(b *testing.B) { runKernelBench(b, 4, kernels.IndexGather[name]) })
	}
}

// ----- Fig. 5: Randperm -------------------------------------------------------

func BenchmarkFig5Randperm(b *testing.B) {
	for _, name := range []string{"exstack", "exstack2", "conveyor", "selector", "array-darts", "am-dart", "am-dart-opt", "am-push"} {
		name := name
		b.Run(name, func(b *testing.B) { runKernelBench(b, 4, kernels.Randperm[name]) })
	}
}

// ----- layer micro-benchmarks -------------------------------------------------

func BenchmarkSerdeEncodeDecode(b *testing.B) {
	vals := make([]uint64, 1024)
	for i := range vals {
		vals[i] = uint64(i * 31)
	}
	enc := serde.NewEncoder(16 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Reset()
		serde.EncodeSlice(enc, vals)
		out := serde.DecodeSlice[uint64](serde.NewDecoder(enc.Bytes()))
		if len(out) != 1024 {
			b.Fatal("bad round trip")
		}
	}
	b.SetBytes(8 * 1024)
}

func BenchmarkSchedulerSubmit(b *testing.B) {
	p := scheduler.NewPool(4)
	defer p.Close()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p.Submit(func() {})
		}
	})
	p.Quiesce()
}

// ----- scheduler executor micro-benchmarks (ISSUE 3) --------------------------

// BenchmarkSchedSubmitExecute measures end-to-end submit+execute
// throughput: parallel producers fire no-op tasks and the iteration does
// not end until every task ran. This is the headline before/after number
// for the lock-free executor (bench_results.txt SCHED section).
func BenchmarkSchedSubmitExecute(b *testing.B) {
	for _, workers := range []int{1, 4, goruntime.NumCPU()} {
		workers := workers
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			p := scheduler.NewPool(workers)
			defer p.Close()
			var ran atomic.Int64
			task := func() { ran.Add(1) }
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					p.Submit(task)
				}
			})
			p.Quiesce()
			if got := ran.Load(); got != int64(b.N) {
				b.Fatalf("ran %d of %d", got, b.N)
			}
		})
	}
}

// BenchmarkSchedSubmitGlobalExecute is the injector path (the Lamellae
// progress engine's entry point) under parallel producers.
func BenchmarkSchedSubmitGlobalExecute(b *testing.B) {
	p := scheduler.NewPool(4)
	defer p.Close()
	var ran atomic.Int64
	task := func() { ran.Add(1) }
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p.SubmitGlobal(task)
		}
	})
	p.Quiesce()
	if got := ran.Load(); got != int64(b.N) {
		b.Fatalf("ran %d of %d", got, b.N)
	}
}

// BenchmarkSchedPingPong measures single-task wakeup latency: submit one
// task, wait for it, repeat — the worst case for the parking protocol
// (every submit may need to unpark a sleeping worker).
func BenchmarkSchedPingPong(b *testing.B) {
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			p := scheduler.NewPool(workers)
			defer p.Close()
			done := make(chan struct{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Submit(func() { done <- struct{}{} })
				<-done
			}
		})
	}
}

// BenchmarkSchedSkewedProducer has a single producer feeding 4 workers
// with short CPU-bound tasks: the balance must come from stealing. The
// steals/op metric records how much redistribution happened.
func BenchmarkSchedSkewedProducer(b *testing.B) {
	p := scheduler.NewPool(4)
	defer p.Close()
	var sink atomic.Uint64
	task := func() {
		var x uint64 = 88172645463325252
		for i := 0; i < 64; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		sink.Add(x)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Submit(task)
	}
	p.Quiesce()
	b.StopTimer()
	_, stolen, _, _ := p.Stats()
	b.ReportMetric(float64(stolen)/float64(b.N), "steals/op")
}

// BenchmarkSchedQueueWait runs a burst workload with telemetry live (so
// every task is stamped, not 1 in 64) and reports the task queue-wait
// p50/p99 (submit→start latency) from the pool's queue-wait histogram —
// the acceptance metric for the executor rewrite.
func BenchmarkSchedQueueWait(b *testing.B) {
	c, owner := telemetry.StartGlobal(1, 1<<16)
	if owner {
		defer telemetry.StopGlobal(c)
	}
	p := scheduler.NewPool(4)
	defer p.Close()
	var h telemetry.Histogram
	p.SetQueueWaitRecorder(&h)
	var sink atomic.Uint64
	task := func() {
		var x uint64 = 2463534242
		for i := 0; i < 32; i++ {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
		}
		sink.Add(x)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Submit(task)
	}
	p.Quiesce()
	b.StopTimer()
	b.ReportMetric(float64(h.Quantile(0.5)), "qwait-p50-ns")
	b.ReportMetric(float64(h.Quantile(0.99)), "qwait-p99-ns")
}

// BenchmarkSchedForkJoin spawns recursive fork-join future trees — the
// Await-helps path under stealing pressure.
func BenchmarkSchedForkJoin(b *testing.B) {
	p := scheduler.NewPool(4)
	defer p.Close()
	var build func(depth int) *scheduler.Future[int]
	build = func(depth int) *scheduler.Future[int] {
		return scheduler.Spawn(p, func() (int, error) {
			if depth == 0 {
				return 1, nil
			}
			l := build(depth - 1)
			r := build(depth - 1)
			lv, _ := l.Await()
			rv, _ := r.Await()
			return lv + rv, nil
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := build(5).MustAwait(); v != 32 {
			b.Fatalf("tree = %d", v)
		}
	}
}

func BenchmarkAMRoundTrip(b *testing.B) {
	err := runtime.Run(benchWorldCfg(2), func(w *runtime.World) {
		if w.MyPE() != 0 {
			return
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := runtime.BlockOn(w, w.ExecAMReturn(1, &echoBench{X: uint64(i)})); err != nil {
				panic(err)
			}
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
}

type echoBench struct{ X uint64 }

func (a *echoBench) MarshalLamellar(e *serde.Encoder)         { e.PutUvarint(a.X) }
func (a *echoBench) UnmarshalLamellar(d *serde.Decoder) error { a.X = d.Uvarint(); return d.Err() }
func (a *echoBench) Exec(ctx *runtime.Context) any            { return a.X }

func init() { runtime.RegisterAM[echoBench]("bench.echo") }

func BenchmarkBarrier(b *testing.B) {
	err := runtime.Run(benchWorldCfg(4), func(w *runtime.World) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Barrier()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkTeamAllReduce(b *testing.B) {
	err := runtime.Run(benchWorldCfg(8), func(w *runtime.World) {
		for i := 0; i < b.N; i++ {
			if got := w.Team().SumU64(1); got != 8 {
				panic(fmt.Sprintf("sum = %d", got))
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAtomicArrayBatchAdd(b *testing.B) {
	const tableLen = 8192
	err := runtime.Run(benchWorldCfg(4), func(w *runtime.World) {
		a := lamellar.NewAtomicArray[uint64](w.Team(), tableLen, lamellar.Block)
		defer a.Drop()
		rng := rand.New(rand.NewSource(int64(w.MyPE())))
		idxs := make([]int, 4096)
		for i := range idxs {
			idxs[i] = rng.Intn(tableLen)
		}
		w.Barrier()
		for i := 0; i < b.N; i++ {
			if _, err := runtime.BlockOn(w, a.BatchAdd(idxs, 1)); err != nil {
				panic(err)
			}
		}
		w.Barrier()
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(4096*4, "updates/op")
}

// benchAtomicOps fires single-element fire-and-forget Adds at the remote
// PE and quiesces with WaitAll, measuring the array op path end to end.
// agg toggles the destination aggregation layer (ISSUE 1), isolating its
// effect on wall time and allocations: aggregated ops share one buffered
// AM per flush where the direct path pays an envelope per op.
func benchAtomicOps(b *testing.B, agg, telemetry bool) {
	const tableLen = 8192
	const opsPerIter = 2048
	cfg := runtime.Config{PEs: 2, WorkersPerPE: 2, Lamellae: runtime.LamellaeSim,
		Telemetry: telemetry}
	if !agg {
		cfg.AggBufSize = -1
	}
	err := runtime.Run(cfg, func(w *runtime.World) {
		a := lamellar.NewAtomicArray[uint64](w.Team(), tableLen, lamellar.Block)
		defer a.Drop()
		if w.MyPE() == 0 {
			rng := rand.New(rand.NewSource(7))
			idxs := make([]int, opsPerIter)
			for i := range idxs {
				idxs[i] = tableLen/2 + rng.Intn(tableLen/2) // PE1's half
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, idx := range idxs {
					a.Add(idx, 1)
				}
				w.WaitAll()
			}
			b.StopTimer()
			b.ReportMetric(opsPerIter, "updates/op")
		}
		w.Barrier()
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAtomicOpsAggregated(b *testing.B) { benchAtomicOps(b, true, false) }

func BenchmarkAtomicOpsDirect(b *testing.B) { benchAtomicOps(b, false, false) }

// BenchmarkAtomicOpsAggregatedTraced is the aggregated path with the
// telemetry subsystem live — rings, histograms, and gauges all active.
// Compare against BenchmarkAtomicOpsAggregated for the enabled-mode cost;
// the disabled-mode delta (Aggregated vs. the PR 1 baseline, both with
// telemetry compiled in but off) is the number bench_results.txt tracks
// against the 2% budget.
func BenchmarkAtomicOpsAggregatedTraced(b *testing.B) { benchAtomicOps(b, true, true) }
