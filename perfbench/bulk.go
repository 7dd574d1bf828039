package main

import (
	"sync/atomic"
	"time"

	"repro/internal/array"
	"repro/internal/runtime"
)

// bulk: the paper's Fig. 3/4 kernels, SPMD with one driver per PE. Each
// iteration makes the array calls of kernels.HistoLamellarArray
// (AtomicArray.BatchAdd) and then of kernels.IGLamellarArray
// (ReadOnlyArray.BatchLoad), timing the issue and await halves apart.

const (
	bulkTablePerPE   = 1000
	bulkUpdatesPerPE = 100_000 // per phase and iteration
	bulkBatches      = 4       // distinct index batches per PE and phase, used in turn
	bulkCap          = 1 << 14 // most iterations one timed phase records
)

// bulkPE is one PE's inputs and arrays.
type bulkPE struct {
	histo, ig [bulkBatches][]int
	tbl       *array.AtomicArray[uint64]
	ro        *array.ReadOnlyArray[uint64]
}

// igFill is the IndexGather fill rule: the element at global index g holds g.
func igFill(pe int) []uint64 {
	t := make([]uint64, bulkTablePerPE)
	for i := range t {
		t[i] = uint64(pe*bulkTablePerPE + i)
	}
	return t
}

func runBulk(o runOpts) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}}
	var pes [numPEs]bulkPE
	tableLen := bulkTablePerPE * numPEs
	for pe := range pes {
		r := rng{s: o.seed ^ uint64(pe+1)*0xb01c}
		for b := 0; b < bulkBatches; b++ {
			pes[pe].histo[b] = make([]int, bulkUpdatesPerPE)
			pes[pe].ig[b] = make([]int, bulkUpdatesPerPE)
			for i := 0; i < bulkUpdatesPerPE; i++ {
				pes[pe].histo[b][i] = r.intn(tableLen)
				pes[pe].ig[b][i] = r.intn(tableLen)
			}
		}
	}
	// Per-iteration stamps on PE 0: start, add issued, add awaited, add
	// barrier, load issued, load awaited, load barrier.
	stamps := make([][7]int64, bulkCap)
	var iters int
	var more atomic.Bool
	var sums [numPEs]uint64
	var badGather [numPEs]int

	// phase runs one histogram and one gather iteration on the calling PE.
	phase := func(w *runtime.World, tr *tracer, it int, s *[7]int64) error {
		pe := w.MyPE()
		st := &pes[pe]
		req := uint32(it + 1)
		root := tr.begin("req.bulk", 0, req, pe)
		s[0] = now()
		sp := tr.begin("array.batch_add", root, req, pe)
		f := st.tbl.BatchAdd(st.histo[it%bulkBatches], 1)
		tr.end(sp)
		s[1] = now()
		sp = tr.begin("runtime.block_on", root, req, pe)
		_, err := runtime.BlockOn(w, f)
		tr.end(sp)
		s[2] = now()
		sp = tr.begin("runtime.barrier", root, req, pe)
		w.Barrier()
		tr.end(sp)
		s[3] = now()
		if err != nil {
			return err
		}
		idx := st.ig[it%bulkBatches]
		sp = tr.begin("array.batch_load", root, req, pe)
		g := st.ro.BatchLoad(idx)
		tr.end(sp)
		s[4] = now()
		sp = tr.begin("runtime.block_on", root, req, pe)
		vals, err := runtime.BlockOn(w, g)
		tr.end(sp)
		s[5] = now()
		sp = tr.begin("runtime.barrier", root, req, pe)
		w.Barrier()
		tr.end(sp)
		s[6] = now()
		tr.end(root)
		if err != nil {
			return err
		}
		for i, gi := range idx {
			if i >= len(vals) || vals[i] != uint64(gi) {
				badGather[pe]++
			}
		}
		return nil
	}

	var errs [numPEs]error
	setup, err := runWorld(worldConfig(runtime.LamellaeSim, nil),
		func(w *runtime.World) {
			pe := w.MyPE()
			st := &pes[pe]
			st.tbl = array.NewAtomicArray[uint64](w.Team(), tableLen, array.Block)
			ua := array.NewUnsafeArray[uint64](w.Team(), tableLen, array.Block)
			ua.PutUnchecked(pe*bulkTablePerPE, igFill(pe))
			w.Barrier()
			st.ro = ua.IntoReadOnly()
			var s [7]int64
			if err := phase(w, nil, 0, &s); err != nil {
				errs[pe] = err
			}
		},
		func(w *runtime.World) {
			pe := w.MyPE()
			st := &pes[pe]
			var a snapshot
			if pe == 0 {
				a = takeSnapshot(w)
			}
			deadline := time.Now().Add(o.timed)
			for it := 0; ; it++ {
				if pe == 0 {
					more.Store(it < bulkCap && time.Now().Before(deadline) && errs[0] == nil)
				}
				w.Barrier()
				if !more.Load() {
					if pe == 0 {
						iters = it
					}
					break
				}
				var s [7]int64
				if err := phase(w, o.tr, it, &s); err != nil && errs[pe] == nil {
					errs[pe] = err
				}
				if pe == 0 {
					stamps[it] = s
				}
			}
			if pe == 0 {
				m.finish(a, takeSnapshot(w), float64(iters*numPEs*2*bulkUpdatesPerPE))
			}
			sum, err := runtime.BlockOn(w, st.tbl.Sum())
			if err != nil && errs[pe] == nil {
				errs[pe] = err
			}
			sums[pe] = sum
			w.Barrier()
			if pe == 0 {
				m.layer["proc.idle_cpu_pct"] = measureIdle()
			}
		})
	if err != nil {
		return nil, err
	}
	m.setupS = setup
	m.attempted = iters * numPEs * 2 * bulkUpdatesPerPE
	for pe, e := range errs {
		if e != nil {
			m.violate("bulk PE %d: %v", pe, e)
		}
		if badGather[pe] > 0 {
			m.violate("bulk PE %d: %d gathered values break the fill rule", pe, badGather[pe])
		}
		// The last world ran one warm-up iteration before the timed ones.
		if want := uint64(bulkUpdatesPerPE * numPEs * (iters + 1)); sums[pe] != want {
			m.violate("bulk PE %d: histogram sum %d, want %d", pe, sums[pe], want)
		}
	}

	iterNs := make([]int64, iters)
	var addIssue, addAwait, loadIssue, loadAwait, barrier []int64
	var histoNs, igNs int64
	for it, s := range stamps[:iters] {
		iterNs[it] = s[6] - s[0]
		histoNs += s[3] - s[0]
		igNs += s[6] - s[3]
		addIssue = append(addIssue, s[1]-s[0])
		addAwait = append(addAwait, s[2]-s[1])
		loadIssue = append(loadIssue, s[4]-s[3])
		loadAwait = append(loadAwait, s[5]-s[4])
		barrier = append(barrier, s[3]-s[2], s[6]-s[5])
	}
	m.latNs = iterNs
	m.lat = summarize(m.latNs)
	perPhase := float64(iters * numPEs * bulkUpdatesPerPE)
	histoMups := ratio(perPhase, float64(histoNs)/1e3)
	igMups := ratio(perPhase, float64(igNs)/1e3)
	ms := func(ns []int64) float64 { return summarize(ns).P50.US / 1e3 }
	m.layer["array.add_issue_ms"] = ms(addIssue)
	m.layer["array.add_await_ms"] = ms(addAwait)
	m.layer["array.load_issue_ms"] = ms(loadIssue)
	m.layer["array.load_await_ms"] = ms(loadAwait)
	m.layer["runtime.barrier_ms"] = ms(barrier)
	m.layer["array.add_mups"] = histoMups
	m.layer["array.load_mups"] = igMups
	m.named = []namedValue{{"histo_mups", "Mop/s", histoMups}, {"ig_mups", "Mop/s", igMups}}
	return m, nil
}
