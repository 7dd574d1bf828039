package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kv"
	"repro/internal/runtime"
)

// kv-zipf drives a sharded KV store (AtomicArray backend, shmem lamellae)
// from PE 0 with a Zipf-keyed Get/Put/FetchAdd mix, in a closed loop with
// one request outstanding. An open loop at a fixed offered rate would let
// latency include queueing, but on a 2-CPU host its generator competes
// with the runtime's polling threads for the CPUs and its latency falls
// into run-to-run modes, so the loop is closed.

const (
	kvKeys    = 4096
	kvSkew    = 0.99
	kvGetFrac = 0.60
	kvPutFrac = 0.25 // FetchAdd takes the remaining 15%
	kvWarmup  = 1000
	// kvMinGap bounds how many requests a segment can issue.
	kvMinGap = 20 * time.Microsecond
)

const (
	opGet uint8 = iota
	opPut
	opFetchAdd
)

var kvSpanNames = [...]string{"kv.get", "kv.put", "kv.fetch_add"}

type kvReq struct {
	op  uint8
	key int32
	val uint64 // Put: self-describing value; FetchAdd: delta
}

// putValue encodes a register value the way the kv ledger check decodes it:
// key+1, writer PE and the writer's per-key sequence number.
func putValue(key, pe int, seq uint32) uint64 {
	return uint64(key+1)<<32 | uint64(pe&0xFFFF)<<16 | uint64(seq&0xFFFF)
}

// genKV draws n requests for PE 0 from the seed: the op mix, Zipf-ranked
// counter keys for FetchAdd and Zipf-ranked register keys for Get and Put.
// Keys split as kv.SplitKeys does, which the ledger check relies on.
func genKV(seed uint64, n int) []kvReq {
	counters, registers := kv.SplitKeys(kvKeys)
	r := rng{s: seed ^ 0x4b56}
	cz, rz := newZipf(counters, kvSkew, &r), newZipf(registers, kvSkew, &r)
	seq := make([]uint32, registers)
	reqs := make([]kvReq, n)
	for i := range reqs {
		switch u := r.float64(); {
		case u < kvGetFrac:
			reqs[i] = kvReq{op: opGet, key: int32(counters + rz.next(&r))}
		case u < kvGetFrac+kvPutFrac:
			k := rz.next(&r)
			reqs[i] = kvReq{op: opPut, key: int32(counters + k), val: putValue(counters+k, 0, seq[k])}
			seq[k]++
		default:
			reqs[i] = kvReq{op: opFetchAdd, key: int32(cz.next(&r)), val: 1}
		}
	}
	return reqs
}

func runKV(o runOpts) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}}
	n := int(o.timed / kvMinGap)
	reqs := genKV(o.seed, kvWarmup+n)
	counters, registers := kv.SplitKeys(kvKeys)
	lat := make([]int64, n)
	issueNs := make([]int64, n)
	var badGets atomic.Int64
	var stores [numPEs]*kv.Store
	var ledger *kv.Ledger
	var verify [numPEs][]string
	var res *kv.Result
	var resMu sync.Mutex // guards res.AddDone and res.Errors
	localReqs := 0

	// issue sends reqs[first+i] from PE 0 as request i+1, records spans
	// into tr and, when issueNs is not nil, the time spent in the store's
	// call into issueNs[i]; done(err) is called once it completed.
	issue := func(tr *tracer, first, i int, issueNs []int64, done func(error)) {
		q := reqs[first+i]
		k := int(q.key)
		req := uint32(i + 1)
		root := tr.begin("req.kv", 0, req, 0)
		switch q.op {
		case opFetchAdd:
			res.AddIssued[k]++
		case opPut:
			res.PutIssued[k-counters]++
		}
		finish := func(err error) {
			if err != nil {
				resMu.Lock()
				res.Errors++
				resMu.Unlock()
			}
			tr.end(root)
			done(err)
		}
		t0 := now()
		sp := tr.begin(kvSpanNames[q.op], root, req, 0)
		switch q.op {
		case opGet:
			f := stores[0].Get(k)
			tr.end(sp)
			sp = tr.begin("scheduler.on_done", root, req, 0)
			f.OnDone(func(v uint64, err error) {
				// A register holds 0 or a value PE 0 wrote to this key.
				if err == nil && v != 0 && (int(v>>32)-1 != k || v>>16&0xFFFF != 0) {
					badGets.Add(1)
				}
				finish(err)
			})
		case opPut:
			f := stores[0].Put(k, q.val)
			tr.end(sp)
			sp = tr.begin("scheduler.on_done", root, req, 0)
			f.OnDone(func(_ struct{}, err error) { finish(err) })
		default:
			f := stores[0].FetchAdd(k, q.val)
			tr.end(sp)
			sp = tr.begin("scheduler.on_done", root, req, 0)
			f.OnDone(func(_ uint64, err error) {
				if err == nil {
					resMu.Lock()
					res.AddDone[k]++
					resMu.Unlock()
				}
				finish(err)
			})
		}
		tr.end(sp)
		if issueNs != nil {
			issueNs[i] = now() - t0
		}
	}

	setup, err := runWorld(worldConfig(runtime.LamellaeShmem, nil),
		func(w *runtime.World) {
			stores[w.MyPE()] = kv.New(w.Team(), kvKeys, kv.BackendAtomic)
			if w.MyPE() != 0 {
				return
			}
			res = &kv.Result{
				Counters:  counters,
				AddIssued: make([]uint64, counters),
				AddDone:   make([]uint64, counters),
				PutIssued: make([]uint32, registers),
			}
			// Warm-up requests are all sent at once, so set-up stays short.
			var wg sync.WaitGroup
			var failed atomic.Int64
			wg.Add(kvWarmup)
			for i := 0; i < kvWarmup; i++ {
				issue(nil, 0, i, nil, func(err error) {
					if err != nil {
						failed.Add(1)
					}
					wg.Done()
				})
			}
			wg.Wait()
			if f := failed.Load(); f > 0 {
				m.violate("kv warm-up: %d requests failed", f)
			}
		},
		func(w *runtime.World) {
			pe := w.MyPE()
			if pe == 0 {
				a := takeSnapshot(w)
				issued, failed := drive(n, a.t.Add(o.timed), func(i int, done func(error)) {
					issue(o.tr, kvWarmup, i, issueNs, done)
				}, lat)
				m.finish(a, takeSnapshot(w), float64(issued-failed))
				m.attempted = issued
				m.failed += failed
				n = issued
				ledger = kv.MergeLedgers([]*kv.Result{res, nil})
				for _, q := range reqs[kvWarmup : kvWarmup+n] {
					if stores[0].OwnerOf(int(q.key)) == 0 {
						localReqs++
					}
				}
			}
			w.Barrier()
			verify[pe] = kv.VerifyLocal(stores[pe], ledger)
			w.Barrier()
			stores[pe].Drop()
			if pe == 0 {
				m.layer["proc.idle_cpu_pct"] = measureIdle()
			}
		})
	if err != nil {
		return nil, err
	}
	m.setupS = setup
	if b := badGets.Load(); b > 0 {
		m.violate("kv: %d Gets returned a value never written to their key", b)
	}
	for pe, bad := range verify {
		for _, v := range bad {
			m.violate("kv ledger PE %d: %s", pe, v)
		}
	}

	lat, issueNs = lat[:n], issueNs[:n]
	var get, write, put, fadd []int64
	for i, q := range reqs[kvWarmup : kvWarmup+n] {
		switch q.op {
		case opGet:
			get = append(get, lat[i])
		case opPut:
			put = append(put, lat[i])
			write = append(write, lat[i])
		default:
			fadd = append(fadd, lat[i])
			write = append(write, lat[i])
		}
	}
	m.latNs = lat
	m.lat = summarize(m.latNs)
	g, wr := summarize(get), summarize(write)
	m.layer["kv.issue_p50_us"] = summarize(issueNs).P50.US
	m.layer["kv.get_p50_us"] = g.P50.US
	m.layer["kv.get_p90_us"] = g.P90.US
	m.layer["kv.put_p90_us"] = summarize(put).P90.US
	m.layer["kv.fadd_p90_us"] = summarize(fadd).P90.US
	m.layer["kv.local_share"] = ratio(float64(localReqs), float64(n))
	m.named = []namedValue{
		{"kv_get_p50_us", "us", g.P50.US},
		{"kv_get_p90_us", "us", g.P90.US},
		{"kv_write_p90_us", "us", wr.P90.US},
	}
	return m, nil
}
