package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/telemetry"
)

// Failure injection: the fabric hook delays random operations, simulating
// a slow or congested NIC; all protocols must remain correct.
func TestRandomDelaysDoNotBreakProtocols(t *testing.T) {
	testCounter.Store(0)
	cfg := Config{PEs: 4, WorkersPerPE: 2, Lamellae: LamellaeSim, RingSlots: 4}
	err := Run(cfg, func(w *World) {
		if w.MyPE() == 0 {
			// the hook fires concurrently from every PE's goroutines; the
			// top-level rand functions are goroutine-safe
			w.Provider().SetHook(func(ev fabric.OpEvent) {
				// delay ~2% of operations
				if rand.Int63()%50 == 0 {
					time.Sleep(200 * time.Microsecond)
				}
			})
		}
		w.Barrier()
		for i := 0; i < 200; i++ {
			w.ExecAM((w.MyPE()+1+i)%w.NumPEs(), &incrAM{Delta: 1})
		}
		w.WaitAll()
		w.Barrier()
		if w.MyPE() == 0 {
			w.Provider().SetHook(nil)
			if got := testCounter.Load(); got != 800 {
				panic(fmt.Sprintf("counter = %d, want 800", got))
			}
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Severe resource pressure: a tiny staging heap and a shallow ring force
// constant backpressure, fragmentation and reclamation in the sim
// lamellae; correctness must hold.
func TestTinyStagingBackpressure(t *testing.T) {
	testCounter.Store(0)
	cfg := Config{
		PEs:          3,
		WorkersPerPE: 2,
		Lamellae:     LamellaeSim,
		StagingBytes: 8 << 10, // 8 KB total staging per PE
		RingSlots:    2,
	}
	err := Run(cfg, func(w *World) {
		// messages larger than staging/4 to force fragmentation too
		payload := make([]byte, 5<<10)
		for i := range payload {
			payload[i] = byte(i)
		}
		var want uint64
		for _, b := range payload {
			want += uint64(b)
		}
		for i := 0; i < 20; i++ {
			dst := (w.MyPE() + 1) % w.NumPEs()
			v, err := BlockOn(w, ExecTyped[uint64](w, dst, &bigAM{Data: payload}))
			if err != nil {
				panic(err)
			}
			if v != want {
				panic(fmt.Sprintf("checksum %d want %d", v, want))
			}
			w.ExecAM(dst, &incrAM{Delta: 1})
		}
		w.WaitAll()
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := testCounter.Load(); got != 60 {
		t.Errorf("counter = %d, want 60", got)
	}
}

// adversarialPlan is the reference fault mix from the issue: 5% drop,
// 5% duplicate, 5% reorder on every link, deterministic under the seed.
func adversarialPlan(seed int64) *fabric.FaultPlan {
	return fabric.NewFaultPlan(seed).SetDefault(fabric.LinkFaults{
		DropRate:    0.05,
		DupRate:     0.05,
		ReorderRate: 0.05,
		Delay:       500 * time.Microsecond,
	})
}

// faultCfg shortens retry timing so injected drops are repaired quickly
// in tests rather than at the production 20ms-initial-backoff pace.
func faultCfg(pes int, tr LamellaeKind, plan *fabric.FaultPlan) Config {
	return Config{
		PEs: pes, WorkersPerPE: 2, Lamellae: tr,
		Faults:          plan,
		RetryInterval:   2 * time.Millisecond,
		RetryBackoffMax: 20 * time.Millisecond,
		DeliveryTimeout: 30 * time.Second,
	}
}

// Under 5% drop/dup/reorder on every link, fire-and-forget AMs, typed
// return AMs, and collectives must all stay exactly correct on every
// remote transport, with zero panics; the wire counters must show the
// protocol actually fired.
func TestAdversarialFabricAllTransports(t *testing.T) {
	for _, tr := range []LamellaeKind{LamellaeSim, LamellaeShmem, LamellaeTCP} {
		tr := tr
		t.Run(string(tr), func(t *testing.T) {
			testCounter.Store(0)
			plan := adversarialPlan(42)
			// Summed across PEs: which PE's frames draw the drops varies
			// with scheduling, so per-PE counters can legitimately be zero.
			var wire struct {
				injected, retries, dedup atomic.Uint64
			}
			err := Run(faultCfg(4, tr, plan), func(w *World) {
				const n = 150
				for i := 0; i < n; i++ {
					dst := (w.MyPE() + 1 + i) % w.NumPEs()
					w.ExecAM(dst, &incrAM{Delta: 1})
					if i%10 == 0 {
						v, err := BlockOn(w, ExecTyped[uint64](w, dst, &echoAM{X: uint64(i)}))
						if err != nil {
							panic(fmt.Sprintf("PE%d: echo error under faults: %v", w.MyPE(), err))
						}
						if v != uint64(dst)*1000+uint64(i) {
							panic(fmt.Sprintf("PE%d: echo = %d", w.MyPE(), v))
						}
					}
				}
				w.WaitAll()
				w.Barrier()
				if got := w.Team().SumU64(1); got != uint64(w.NumPEs()) {
					panic(fmt.Sprintf("collective under faults: %d", got))
				}
				s := w.Stats()
				wire.injected.Add(s.WireFaultsInjected)
				wire.retries.Add(s.WireRetries)
				wire.dedup.Add(s.WireDupDropped)
				w.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := testCounter.Load(); got != 600 {
				t.Errorf("counter = %d, want 600", got)
			}
			if plan.Injected().Total() == 0 {
				t.Error("fault plan injected nothing; test exercised no faults")
			}
			if wire.injected.Load() == 0 {
				t.Error("Stats.WireFaultsInjected = 0 on every PE under a 15% fault mix")
			}
			if wire.retries.Load() == 0 {
				t.Error("Stats.WireRetries = 0 on every PE; drops were never repaired by retransmission")
			}
			t.Logf("%s: plan injected %d faults; wire totals: injected=%d retx=%d dedup=%d",
				tr, plan.Injected().Total(), wire.injected.Load(), wire.retries.Load(), wire.dedup.Load())
		})
	}
}

// Duplicate-heavy traffic must be absorbed by receiver dedup: the
// counter's final value proves no duplicated frame re-executed its AMs.
func TestDuplicateFloodIsDeduped(t *testing.T) {
	testCounter.Store(0)
	plan := fabric.NewFaultPlan(7).SetDefault(fabric.LinkFaults{DupRate: 0.5})
	err := Run(faultCfg(3, LamellaeShmem, plan), func(w *World) {
		for i := 0; i < 300; i++ {
			w.ExecAM((w.MyPE()+1)%w.NumPEs(), &incrAM{Delta: 1})
		}
		w.WaitAll()
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := testCounter.Load(); got != 900 {
		t.Errorf("counter = %d, want 900 (duplicates re-executed AMs)", got)
	}
}

// A hard partition must surface as a *DeliveryError on the issuing
// future — not a panic, not a hang — and the world must still finalize.
func TestPartitionSurfacesDeliveryError(t *testing.T) {
	plan := fabric.NewFaultPlan(3)
	cfg := Config{
		PEs: 2, WorkersPerPE: 2, Lamellae: LamellaeShmem,
		Faults:          plan,
		RetryInterval:   2 * time.Millisecond,
		RetryBackoffMax: 10 * time.Millisecond,
		DeliveryTimeout: 250 * time.Millisecond,
	}
	var sawTimeout bool
	err := Run(cfg, func(w *World) {
		w.Barrier() // world is up before the partition lands
		if w.MyPE() == 0 {
			plan.Partition(0, 1, true)
			_, err := BlockOn(w, ExecTyped[uint64](w, 1, &echoAM{X: 9}))
			var de *DeliveryError
			if !errors.As(err, &de) {
				panic(fmt.Sprintf("want *DeliveryError, got %v", err))
			}
			if de.Src != 0 || de.Dst != 1 || de.Attempts < 2 {
				panic(fmt.Sprintf("unexpected delivery error detail: %+v", de))
			}
			sawTimeout = true
			plan.Heal(0, 1, true)
		}
		w.WaitAll()
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawTimeout {
		t.Fatal("partitioned future never resolved with DeliveryError")
	}
}

// Wire counters must surface through every reporting channel with no
// telemetry session: the Stats fields, the Stats wire(...) segment, and
// the world's Prometheus dump.
func TestWireCountersInTelemetryAndProm(t *testing.T) {
	testCounter.Store(0)
	plan := fabric.NewFaultPlan(5).SetDefault(fabric.LinkFaults{DropRate: 0.2})
	cfg := faultCfg(2, LamellaeShmem, plan)
	var prom strings.Builder
	var stats Stats
	err := Run(cfg, func(w *World) {
		// Many small flushed rounds, not one aggregated burst: each WaitAll
		// forces the round's data frames onto the wire, so the 20% plan is
		// guaranteed to hit data frames (whose repair is a wire.retry), not
		// just acks — a dropped ack can be absorbed by a later cumulative
		// ack without any retransmission.
		for round := 0; round < 20; round++ {
			for i := 0; i < 10; i++ {
				w.ExecAM(1-w.MyPE(), &incrAM{Delta: 1})
			}
			w.WaitAll()
		}
		w.Barrier()
		if w.MyPE() == 0 {
			stats = w.Stats()
			if err := w.WritePrometheus(&prom); err != nil {
				panic(err)
			}
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if telemetry.Enabled() {
		t.Fatal("test must run without a telemetry session")
	}
	if got := testCounter.Load(); got != 400 {
		t.Errorf("counter = %d, want 400", got)
	}
	if stats.WireFaultsInjected == 0 || stats.WireRetries == 0 {
		t.Errorf("Stats wire counters empty: injected=%d retx=%d",
			stats.WireFaultsInjected, stats.WireRetries)
	}
	if !strings.Contains(stats.String(), "wire(") {
		t.Error("Stats.String() lacks the wire(...) segment")
	}
	samples, _ := parseProm(t, prom.String())
	for _, fam := range []string{"lamellar_wire_retries_total", "lamellar_wire_faults_injected_total"} {
		var sum float64
		for _, s := range samples {
			if s.name == fam {
				sum += s.value
			}
		}
		if sum == 0 {
			t.Errorf("prometheus dump has no non-zero %s series", fam)
		}
	}
}

// Same fault mix, different seeds: the injection sequences must differ;
// same seed: identical (the determinism contract tests depend on).
func TestFaultPlanSeedChangesInjection(t *testing.T) {
	counts := func(seed int64) uint64 {
		plan := adversarialPlan(seed)
		for i := 0; i < 500; i++ {
			plan.Decide(0, 1)
		}
		return plan.Injected().Total()
	}
	a, b, a2 := counts(11), counts(12), counts(11)
	if a != a2 {
		t.Errorf("same seed diverged: %d vs %d", a, a2)
	}
	if a == b {
		t.Logf("note: seeds 11 and 12 coincidentally injected the same count (%d)", a)
	}
}

// A panicking AM must not poison subsequent traffic on the same queues.
func TestPanicDoesNotPoisonQueues(t *testing.T) {
	testCounter.Store(0)
	err := Run(Config{PEs: 2, WorkersPerPE: 2, Lamellae: LamellaeSim}, func(w *World) {
		if w.MyPE() == 0 {
			for i := 0; i < 10; i++ {
				w.ExecAM(1, &panicAM{})
				w.ExecAM(1, &incrAM{Delta: 1})
			}
			w.WaitAll()
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := testCounter.Load(); got != 10 {
		t.Errorf("counter = %d, want 10", got)
	}
}
