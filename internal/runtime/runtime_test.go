package runtime

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/serde"
)

// ----- test AM types -----------------------------------------------------

// incrAM atomically bumps a process-global counter (observable effect).
type incrAM struct {
	Delta uint64
}

var testCounter atomic.Uint64

func (a *incrAM) MarshalLamellar(e *serde.Encoder)         { e.PutUvarint(a.Delta) }
func (a *incrAM) UnmarshalLamellar(d *serde.Decoder) error { a.Delta = d.Uvarint(); return d.Err() }
func (a *incrAM) Exec(ctx *Context) any {
	testCounter.Add(a.Delta)
	return nil
}

// echoAM returns a value derived from its payload and executing PE.
type echoAM struct {
	X uint64
}

func (a *echoAM) MarshalLamellar(e *serde.Encoder)         { e.PutUvarint(a.X) }
func (a *echoAM) UnmarshalLamellar(d *serde.Decoder) error { a.X = d.Uvarint(); return d.Err() }
func (a *echoAM) Exec(ctx *Context) any {
	return uint64(ctx.CurrentPE())*1000 + a.X
}

// chainAM forwards itself Hops more times before bumping the counter; it
// exercises AM-launched-from-AM and quiescence of deep chains.
type chainAM struct {
	Hops int
}

func (a *chainAM) MarshalLamellar(e *serde.Encoder)         { e.PutInt(a.Hops) }
func (a *chainAM) UnmarshalLamellar(d *serde.Decoder) error { a.Hops = d.Int(); return d.Err() }
func (a *chainAM) Exec(ctx *Context) any {
	if a.Hops <= 0 {
		testCounter.Add(1)
		return nil
	}
	next := (ctx.CurrentPE() + 1) % ctx.NumPEs()
	ctx.World.ExecAM(next, &chainAM{Hops: a.Hops - 1})
	return nil
}

// bigAM carries a large payload to exercise lamellae fragmentation.
type bigAM struct {
	Data []byte
}

func (a *bigAM) MarshalLamellar(e *serde.Encoder) { e.PutBytes(a.Data) }
func (a *bigAM) UnmarshalLamellar(d *serde.Decoder) error {
	a.Data = d.BytesCopy()
	return d.Err()
}
func (a *bigAM) Exec(ctx *Context) any {
	var sum uint64
	for _, b := range a.Data {
		sum += uint64(b)
	}
	return sum
}

// panicAM always panics; origin must still observe an error.
type panicAM struct{}

func (a *panicAM) MarshalLamellar(e *serde.Encoder)         {}
func (a *panicAM) UnmarshalLamellar(d *serde.Decoder) error { return nil }
func (a *panicAM) Exec(ctx *Context) any                    { panic("intentional test panic") }

// returnAMAM returns another AM, which must execute at the origin.
type returnAMAM struct{}

func (a *returnAMAM) MarshalLamellar(e *serde.Encoder)         {}
func (a *returnAMAM) UnmarshalLamellar(d *serde.Decoder) error { return nil }
func (a *returnAMAM) Exec(ctx *Context) any {
	return &echoAM{X: 77}
}

func init() {
	RegisterAM[incrAM]("test.incr")
	RegisterAM[echoAM]("test.echo")
	RegisterAM[chainAM]("test.chain")
	RegisterAM[bigAM]("test.big")
	RegisterAM[panicAM]("test.panic")
	RegisterAM[returnAMAM]("test.returnAM")
}

// transports under test: sim exercises the ring/flag protocol with the
// cost model; shmem cross-validates with an independent transport.
var transports = []LamellaeKind{LamellaeSim, LamellaeShmem}

func forEachTransport(t *testing.T, pes int, fn func(w *World)) {
	t.Helper()
	for _, tr := range transports {
		tr := tr
		t.Run(string(tr), func(t *testing.T) {
			cfg := Config{PEs: pes, WorkersPerPE: 2, Lamellae: tr}
			if err := Run(cfg, fn); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// ----- tests --------------------------------------------------------------

func TestExecAMAllIncrements(t *testing.T) {
	for _, tr := range transports {
		t.Run(string(tr), func(t *testing.T) {
			testCounter.Store(0)
			err := Run(Config{PEs: 4, WorkersPerPE: 2, Lamellae: tr}, func(w *World) {
				if w.MyPE() == 0 {
					w.ExecAMAll(&incrAM{Delta: 1})
					w.WaitAll()
				}
				w.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
			if testCounter.Load() != 4 {
				t.Errorf("counter = %d, want 4", testCounter.Load())
			}
		})
	}
}

func TestExecAMReturn(t *testing.T) {
	forEachTransport(t, 4, func(w *World) {
		dst := (w.MyPE() + 1) % w.NumPEs()
		f := ExecTyped[uint64](w, dst, &echoAM{X: uint64(w.MyPE())})
		v, err := BlockOn(w, f)
		if err != nil {
			panic(err)
		}
		want := uint64(dst)*1000 + uint64(w.MyPE())
		if v != want {
			panic(fmt.Sprintf("PE%d: got %d want %d", w.MyPE(), v, want))
		}
	})
}

func TestExecAMAllReturn(t *testing.T) {
	forEachTransport(t, 3, func(w *World) {
		vals, err := BlockOn(w, w.ExecAMAllReturn(&echoAM{X: 5}))
		if err != nil {
			panic(err)
		}
		for pe, v := range vals {
			if v.(uint64) != uint64(pe)*1000+5 {
				panic(fmt.Sprintf("vals[%d] = %v", pe, v))
			}
		}
	})
}

func TestWaitAllCompletes(t *testing.T) {
	for _, tr := range transports {
		t.Run(string(tr), func(t *testing.T) {
			testCounter.Store(0)
			err := Run(Config{PEs: 4, WorkersPerPE: 2, Lamellae: tr}, func(w *World) {
				const per = 100
				for i := 0; i < per; i++ {
					w.ExecAM((w.MyPE()+1+i)%w.NumPEs(), &incrAM{Delta: 1})
				}
				w.WaitAll()
				// After WaitAll all MY AMs ran somewhere; barrier then check.
				w.Barrier()
				if w.MyPE() == 0 {
					if got := testCounter.Load(); got != 4*per {
						panic(fmt.Sprintf("counter = %d, want %d", got, 4*per))
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestChainedAMsQuiesce(t *testing.T) {
	for _, tr := range transports {
		t.Run(string(tr), func(t *testing.T) {
			testCounter.Store(0)
			err := Run(Config{PEs: 4, WorkersPerPE: 2, Lamellae: tr}, func(w *World) {
				if w.MyPE() == 0 {
					for i := 0; i < 8; i++ {
						w.ExecAM(1, &chainAM{Hops: 20})
					}
				}
				// no explicit wait: Run's finalize must drain the chains
			})
			if err != nil {
				t.Fatal(err)
			}
			if testCounter.Load() != 8 {
				t.Errorf("counter = %d, want 8", testCounter.Load())
			}
		})
	}
}

// A double-credited completion (completed > issued) must fail loudly,
// naming the PE and both counts and attaching the diagnostic dump,
// instead of wrapping the unsigned quiescence difference and spinning
// WaitAll/finalize forever.
func TestCompletedOverIssuedPanics(t *testing.T) {
	err := Run(Config{PEs: 1, WorkersPerPE: 1}, func(w *World) {
		w.completed.Add(1)    // forge a double credit
		defer w.issued.Add(1) // rebalance so finalize can quiesce
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, "PE0 completed 1 AMs but issued only 0") || !strings.Contains(msg, `"worlds"`) {
				t.Errorf("WaitAll with completed > issued recovered %q; want a panic naming PE0, both counts and the diagnostic dump", msg)
			}
		}()
		w.WaitAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBigPayloadFragmentation(t *testing.T) {
	// payload far larger than staging/4 forces multi-fragment reassembly
	cfg := Config{PEs: 2, WorkersPerPE: 2, Lamellae: LamellaeSim, StagingBytes: 1 << 20}
	err := Run(cfg, func(w *World) {
		if w.MyPE() != 0 {
			return
		}
		data := make([]byte, 3<<20)
		var want uint64
		for i := range data {
			data[i] = byte(i * 31)
			want += uint64(data[i])
		}
		v, err := BlockOn(w, ExecTyped[uint64](w, 1, &bigAM{Data: data}))
		if err != nil {
			panic(err)
		}
		if v != want {
			panic(fmt.Sprintf("checksum %d want %d", v, want))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPanicInAMReturnsError(t *testing.T) {
	forEachTransport(t, 2, func(w *World) {
		if w.MyPE() != 0 {
			return
		}
		_, err := BlockOn(w, w.ExecAMReturn(1, &panicAM{}))
		if err == nil {
			panic("expected error from panicking AM")
		}
	})
}

func TestReturnedAMExecutesAtOrigin(t *testing.T) {
	forEachTransport(t, 2, func(w *World) {
		if w.MyPE() != 0 {
			return
		}
		v, err := BlockOn(w, w.ExecAMReturn(1, &returnAMAM{}))
		if err != nil {
			panic(err)
		}
		// echoAM runs at the origin (PE0): 0*1000 + 77
		if v.(uint64) != 77 {
			panic(fmt.Sprintf("returned-AM result = %v", v))
		}
	})
}

func TestCollectiveSum(t *testing.T) {
	for _, pes := range []int{1, 2, 3, 4, 5, 7, 8} {
		pes := pes
		t.Run(fmt.Sprintf("pes=%d", pes), func(t *testing.T) {
			err := Run(Config{PEs: pes, WorkersPerPE: 1, Lamellae: LamellaeShmem}, func(w *World) {
				team := w.Team()
				got := team.SumU64(uint64(w.MyPE() + 1))
				want := uint64(pes * (pes + 1) / 2)
				if got != want {
					panic(fmt.Sprintf("PE%d: sum = %d want %d", w.MyPE(), got, want))
				}
				if mx := team.MaxU64(uint64(w.MyPE())); mx != uint64(pes-1) {
					panic(fmt.Sprintf("max = %d", mx))
				}
				if mn := team.MinU64(uint64(w.MyPE() + 10)); mn != 10 {
					panic(fmt.Sprintf("min = %d", mn))
				}
				if s := team.SumF64(0.5); s != 0.5*float64(pes) {
					panic(fmt.Sprintf("fsum = %v", s))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBroadcastVariousRoots(t *testing.T) {
	err := Run(Config{PEs: 5, WorkersPerPE: 1, Lamellae: LamellaeShmem}, func(w *World) {
		team := w.Team()
		for root := 0; root < team.Size(); root++ {
			var mine []byte
			if team.Rank() == root {
				mine = []byte(fmt.Sprintf("from-%d", root))
			}
			got := team.BroadcastBytes(root, mine)
			if string(got) != fmt.Sprintf("from-%d", root) {
				panic(fmt.Sprintf("PE%d root%d: %q", w.MyPE(), root, got))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGather(t *testing.T) {
	err := Run(Config{PEs: 6, WorkersPerPE: 1, Lamellae: LamellaeShmem}, func(w *World) {
		got := w.Team().AllGatherBytes([]byte{byte(w.MyPE() * 3)})
		for r, b := range got {
			if len(b) != 1 || b[0] != byte(r*3) {
				panic(fmt.Sprintf("PE%d: gather[%d] = %v", w.MyPE(), r, b))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedCollectivesInterleaved(t *testing.T) {
	// Alternate op types to exercise slot reuse across differing phases.
	err := Run(Config{PEs: 4, WorkersPerPE: 1, Lamellae: LamellaeShmem}, func(w *World) {
		team := w.Team()
		for i := 0; i < 30; i++ {
			s := team.SumU64(1)
			if s != 4 {
				panic(fmt.Sprintf("round %d: sum=%d", i, s))
			}
			root := i % 4
			var mine []byte
			if team.Rank() == root {
				mine = []byte{byte(i)}
			}
			b := team.BroadcastBytes(root, mine)
			if len(b) != 1 || b[0] != byte(i) {
				panic(fmt.Sprintf("round %d: bcast=%v", i, b))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTeamSplit(t *testing.T) {
	err := Run(Config{PEs: 6, WorkersPerPE: 1, Lamellae: LamellaeShmem}, func(w *World) {
		world := w.Team()
		evens := world.SplitStrided(0, 2) // PEs 0,2,4
		if w.MyPE()%2 == 0 {
			if evens == nil {
				panic("even PE got nil team")
			}
			if evens.Size() != 3 {
				panic(fmt.Sprintf("evens size = %d", evens.Size()))
			}
			if evens.WorldPE(evens.Rank()) != w.MyPE() {
				panic("rank mapping broken")
			}
			sum := evens.SumU64(uint64(w.MyPE()))
			if sum != 0+2+4 {
				panic(fmt.Sprintf("team sum = %d", sum))
			}
			evens.Barrier()
		} else if evens != nil {
			panic("odd PE got a team handle")
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTeamScopedAM(t *testing.T) {
	testCounter.Store(0)
	err := Run(Config{PEs: 4, WorkersPerPE: 1, Lamellae: LamellaeShmem}, func(w *World) {
		sub := w.Team().Split([]int{1, 3})
		if sub != nil && sub.Rank() == 0 { // world PE1
			sub.ExecAMAll(&incrAM{Delta: 10})
			sub.World().WaitAll()
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if testCounter.Load() != 20 {
		t.Errorf("counter = %d, want 20", testCounter.Load())
	}
}

func TestCollectiveConstruction(t *testing.T) {
	err := Run(Config{PEs: 4, WorkersPerPE: 1, Lamellae: LamellaeShmem}, func(w *World) {
		v := w.Team().Collective(func() any { return []int{w.NumPEs()} })
		if v.([]int)[0] != 4 {
			panic("collective value wrong")
		}
		// all PEs must observe the SAME instance
		v2 := w.Team().Collective(func() any { return new(int) })
		p := v2.(*int)
		w.Barrier()
		if w.MyPE() == 0 {
			*p = 99
		}
		w.Barrier()
		if *p != 99 {
			panic("collective did not share instance")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSMPWorldBuilder(t *testing.T) {
	w, err := NewWorldBuilder().Workers(2).Build()
	if err != nil {
		t.Fatal(err)
	}
	testCounter.Store(0)
	w.ExecAMAll(&incrAM{Delta: 3})
	w.WaitAll()
	if testCounter.Load() != 3 {
		t.Errorf("counter = %d", testCounter.Load())
	}
	v, err := BlockOn(w, ExecTyped[uint64](w, 0, &echoAM{X: 9}))
	if err != nil || v != 9 {
		t.Errorf("echo = %d, %v", v, err)
	}
	w.finalize()
	w.env.close()
}

func TestAggMaxOpsFlushes(t *testing.T) {
	// With AggMaxOps=1 every op flushes immediately; semantics unchanged.
	testCounter.Store(0)
	err := Run(Config{PEs: 2, WorkersPerPE: 1, Lamellae: LamellaeSim, AggMaxOps: 1}, func(w *World) {
		if w.MyPE() == 0 {
			for i := 0; i < 50; i++ {
				w.ExecAM(1, &incrAM{Delta: 2})
			}
			w.WaitAll()
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if testCounter.Load() != 100 {
		t.Errorf("counter = %d", testCounter.Load())
	}
}

func TestSimCountsTraffic(t *testing.T) {
	var modeled uint64
	err := Run(Config{PEs: 2, WorkersPerPE: 1, Lamellae: LamellaeSim}, func(w *World) {
		if w.MyPE() == 0 {
			for i := 0; i < 10; i++ {
				w.ExecAM(1, &incrAM{Delta: 1})
			}
			w.WaitAll()
			modeled = w.Provider().CountersFor(0).ModeledNs
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if modeled == 0 {
		t.Error("no modeled time accumulated on sim lamellae")
	}
}

func TestStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	testCounter.Store(0)
	err := Run(Config{PEs: 8, WorkersPerPE: 2, Lamellae: LamellaeSim}, func(w *World) {
		const per = 500
		for i := 0; i < per; i++ {
			w.ExecAM(i%w.NumPEs(), &incrAM{Delta: 1})
			if i%97 == 0 {
				w.ExecAM((w.MyPE()+3)%w.NumPEs(), &chainAM{Hops: 5})
			}
		}
		w.WaitAll()
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(8*500 + 8*6)
	if got := testCounter.Load(); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
}

func TestMismatchedCollectivesPanic(t *testing.T) {
	// One PE splits a team while the other constructs a "shmem.alloc"-
	// style collective at the same sequence position: the runtime must
	// fail loudly instead of silently corrupting shared state.
	err := Run(Config{PEs: 2, WorkersPerPE: 1, Lamellae: LamellaeShmem}, func(w *World) {
		defer func() {
			if r := recover(); r != nil {
				if !strings.Contains(fmt.Sprint(r), "mismatched collective") {
					panic(r)
				}
				// one side observes the diagnostic; the other side's
				// collective can never complete, so do not wait for it
			}
		}()
		if w.MyPE() == 0 {
			w.Team().CollectiveKind("kindA", func() any { return 1 })
		} else {
			w.Team().CollectiveKind("kindB", func() any { return 2 })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The TCP lamellae moves batches over real loopback sockets; semantics
// must match the other transports.
func TestTCPLamellae(t *testing.T) {
	testCounter.Store(0)
	err := Run(Config{PEs: 3, WorkersPerPE: 2, Lamellae: LamellaeTCP}, func(w *World) {
		for i := 0; i < 100; i++ {
			w.ExecAM((w.MyPE()+1+i)%w.NumPEs(), &incrAM{Delta: 2})
		}
		w.WaitAll()
		// returns over TCP
		v, err := BlockOn(w, ExecTyped[uint64](w, (w.MyPE()+1)%w.NumPEs(), &echoAM{X: 3}))
		if err != nil {
			panic(err)
		}
		if v != uint64((w.MyPE()+1)%w.NumPEs())*1000+3 {
			panic(fmt.Sprintf("echo = %d", v))
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := testCounter.Load(); got != 600 {
		t.Errorf("counter = %d, want 600", got)
	}
}

func TestTCPLamellaeLargePayload(t *testing.T) {
	err := Run(Config{PEs: 2, WorkersPerPE: 2, Lamellae: LamellaeTCP}, func(w *World) {
		if w.MyPE() != 0 {
			return
		}
		data := make([]byte, 2<<20)
		var want uint64
		for i := range data {
			data[i] = byte(i * 7)
			want += uint64(data[i])
		}
		v, err := BlockOn(w, ExecTyped[uint64](w, 1, &bigAM{Data: data}))
		if err != nil {
			panic(err)
		}
		if v != want {
			panic("checksum mismatch over TCP")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// gobAM exercises the reflection-based registration path end to end.
type gobAM struct {
	M map[string]int
	S []string
}

func (a *gobAM) Exec(ctx *Context) any {
	total := 0
	for _, v := range a.M {
		total += v
	}
	return uint64(total + len(a.S)*100)
}

func init() {
	RegisterAMGob[gobAM]("test.gobAM")
}

func TestGobRegisteredAM(t *testing.T) {
	forEachTransport(t, 2, func(w *World) {
		if w.MyPE() != 0 {
			return
		}
		am := &gobAM{M: map[string]int{"a": 3, "b": 4}, S: []string{"x", "y"}}
		v, err := BlockOn(w, ExecTyped[uint64](w, 1, am))
		if err != nil {
			panic(err)
		}
		if v != 207 {
			panic(fmt.Sprintf("gob AM result = %d", v))
		}
	})
}

// Teams: AM returns indexed by team rank.
func TestTeamExecAMAllReturn(t *testing.T) {
	err := Run(Config{PEs: 4, WorkersPerPE: 1, Lamellae: LamellaeShmem}, func(w *World) {
		sub := w.Team().Split([]int{1, 3})
		if sub != nil && sub.Rank() == 1 { // world PE3
			vals, err := BlockOn(w, sub.ExecAMAllReturn(&echoAM{X: 2}))
			if err != nil {
				panic(err)
			}
			// rank 0 = world PE1, rank 1 = world PE3
			if vals[0].(uint64) != 1002 || vals[1].(uint64) != 3002 {
				panic(fmt.Sprintf("team returns = %v", vals))
			}
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
