package runtime

import (
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestStatsCounters(t *testing.T) {
	err := Run(Config{PEs: 2, WorkersPerPE: 1, Lamellae: LamellaeSim}, func(w *World) {
		if w.MyPE() == 0 {
			for i := 0; i < 10; i++ {
				w.ExecAM(1, &incrAM{Delta: 1})
			}
			w.WaitAll()
			s := w.Stats()
			if s.Issued != 10 || s.Completed != 10 {
				panic("issued/completed mismatch")
			}
			if s.EnvelopesSent < 10 {
				panic("envelope count too low")
			}
			if s.Fabric.Msgs == 0 {
				panic("no fabric traffic recorded")
			}
			if !strings.Contains(s.String(), "PE0") {
				panic("String() malformed")
			}
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A snapshot taken while AMs complete must never show more completions
// than issues: Stats loads completed before issued, and every completion
// follows its issue. One goroutine issues self-AMs in groups of four
// (so issued−completed is usually 0 and an AM can issue and complete
// between two loads) while another polls; with the loads in the other
// order this fails within a few thousand AMs. Run it under -race too.
func TestStatsCompletedNeverExceedsIssued(t *testing.T) {
	var polls, bad atomic.Uint64
	var first atomic.Value // Stats of the first bad snapshot
	err := Run(Config{PEs: 1, WorkersPerPE: 1}, func(w *World) {
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				s := w.Stats()
				polls.Add(1)
				if s.Completed > s.Issued && bad.Add(1) == 1 {
					first.Store(s)
				}
			}
		}()
		for i := 0; i < 100_000; i++ {
			w.ExecAM(0, &incrAM{Delta: 1})
			if i%4 == 0 {
				w.WaitAll()
			}
		}
		w.WaitAll()
		stop.Store(true)
		wg.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
	if polls.Load() == 0 {
		t.Fatal("poller took no snapshots")
	}
	if n := bad.Load(); n > 0 {
		s := first.Load().(Stats)
		t.Fatalf("%d of %d snapshots show completed > issued, first: completed=%d issued=%d",
			n, polls.Load(), s.Completed, s.Issued)
	}
}

func TestApplyEnv(t *testing.T) {
	set := func(k, v string) {
		old, had := os.LookupEnv(k)
		os.Setenv(k, v)
		t.Cleanup(func() {
			if had {
				os.Setenv(k, old)
			} else {
				os.Unsetenv(k)
			}
		})
	}
	set("LAMELLAR_THREADS", "7")
	set("LAMELLAR_AGG_SIZE", "12345")
	set("LAMELLAR_OP_BATCH", "99")
	set("LAMELLAR_LAMELLAE", "shmem")
	set("LAMELLAR_RING_SLOTS", "33")
	c := Config{}.ApplyEnv()
	if c.WorkersPerPE != 7 || c.AggThresholdBytes != 12345 || c.ArrayBatchSize != 99 ||
		c.Lamellae != LamellaeShmem || c.RingSlots != 33 {
		t.Errorf("env not applied: %+v", c)
	}
	// malformed values are ignored
	set("LAMELLAR_THREADS", "not-a-number")
	c2 := Config{WorkersPerPE: 3}.ApplyEnv()
	if c2.WorkersPerPE != 3 {
		t.Errorf("malformed env overwrote value: %+v", c2)
	}
}
