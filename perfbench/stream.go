package main

import (
	"bytes"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/runtime"
	"repro/internal/serde"
)

// stream-faulted: PE 0 streams one-way 1 KiB AMs to PE 1 in batches, each
// ended by WaitAll, over shmem lamellae on a seeded fault plan. It is the
// workload on which the reliable wire does its work: retransmission, SACK,
// duplicate and reorder handling, adaptive RTO.
//
// A batch is short enough that the process uses well under one of the two
// CPUs, so throughput does not follow the host's spare capacity.

const (
	streamPayload  = 1024
	streamPayloads = 16  // distinct payloads, used in turn
	streamBatch    = 256 // AMs per WaitAll
	streamWarmup   = 20_480
	streamSampleEv = 8       // one AM in this many keeps its latency samples
	streamCap      = 1 << 24 // most AMs one timed phase sends
	// streamFaultSeed is fixed with the workload, not drawn from --seed, so
	// every run sees the same fault process.
	streamFaultSeed = 41
)

// streamFaults is the wire benchmark's faulted5 plan: 5% drop, 5%
// duplicate and 5% reorder, with reordered frames held 500 µs.
func streamFaults() *fabric.FaultPlan {
	return fabric.NewFaultPlan(streamFaultSeed).SetDefault(fabric.LinkFaults{
		DropRate: 0.05, DupRate: 0.05, ReorderRate: 0.05, Delay: 500 * time.Microsecond})
}

// streamAM carries one payload. Seq is the request id; SentNs is the
// benchmark-clock time the launching call was entered, 0 in warm-up.
type streamAM struct {
	Seq    uint64
	SentNs int64
	Data   []byte
}

func (a *streamAM) MarshalLamellar(e *serde.Encoder) {
	e.PutU64(a.Seq)
	e.PutVarint(a.SentNs)
	e.PutBytes(a.Data)
}

func (a *streamAM) UnmarshalLamellar(d *serde.Decoder) error {
	a.Seq, a.SentNs, a.Data = d.U64(), d.Varint(), d.Bytes()
	return d.Err()
}

// streamRx is the receiver's record, shared with the handler on PE 1.
// Handlers are decoded by the runtime and reach it only as a package
// variable, set before any world starts.
var streamRx *streamRecv

type streamRecv struct {
	payloads [streamPayloads][]byte
	seen     []atomic.Uint32 // deliveries per Seq within the current batch
	handled  atomic.Int64
	corrupt  atomic.Int64
	oneWay   []atomic.Int64 // handler start - SentNs, per sampled AM
}

func (a *streamAM) Exec(ctx *runtime.Context) any {
	start := now()
	rx := streamRx
	rx.handled.Add(1)
	rx.seen[a.Seq%streamBatch].Add(1)
	if !bytes.Equal(a.Data, rx.payloads[a.Seq%streamPayloads]) {
		rx.corrupt.Add(1)
	}
	if a.SentNs != 0 {
		if a.Seq%streamSampleEv == 0 {
			rx.oneWay[a.Seq/streamSampleEv].Store(start - a.SentNs)
		}
		activeTracer.record("handler.exec", 0, uint32(a.Seq), ctx.CurrentPE(), start, now())
	}
	return nil
}

func init() { runtime.RegisterAM[streamAM]("perfbench.stream") }

func runStream(o runOpts) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}}
	rx := &streamRecv{
		seen:   make([]atomic.Uint32, streamBatch),
		oneWay: make([]atomic.Int64, streamCap/streamSampleEv),
	}
	r := rng{s: o.seed ^ 0x57e4}
	for i := range rx.payloads {
		p := make([]byte, streamPayload)
		for j := range p {
			p[j] = byte(r.next())
		}
		rx.payloads[i] = p
	}
	streamRx = rx
	issueNs := make([]int64, streamCap/streamSampleEv)
	var waitNs []int64
	sent := 0 // timed AMs issued

	// batch streams count AMs with Seq base.. and waits for them, then
	// checks that each ran exactly once. Timed batches stamp each AM with
	// its send time and record spans into tr.
	batch := func(w *runtime.World, tr *tracer, base uint64, count int, timed bool) {
		req := uint32(base/streamBatch + 1)
		root := tr.begin("req.stream", 0, req, 0)
		for s := base; s < base+uint64(count); s++ {
			am := &streamAM{Seq: s, Data: rx.payloads[s%streamPayloads]}
			if !timed {
				w.ExecAM(1, am)
				continue
			}
			sp := tr.begin("runtime.exec_am", root, uint32(s), 0)
			am.SentNs = now()
			w.ExecAM(1, am)
			if s%streamSampleEv == 0 {
				issueNs[s/streamSampleEv] = now() - am.SentNs
			}
			tr.end(sp)
		}
		t1 := now()
		sp := tr.begin("runtime.wait_all", root, req, 0)
		w.WaitAll()
		tr.end(sp)
		t2 := now()
		tr.end(root)
		if timed {
			waitNs = append(waitNs, t2-t1)
		}
		for i := range rx.seen[:count] {
			if c := rx.seen[i].Swap(0); c != 1 {
				m.violate("stream: AM %d ran %d times, want exactly once", base+uint64(i), c)
			}
		}
	}

	setup, err := runWorld(worldConfig(runtime.LamellaeShmem, streamFaults()),
		func(w *runtime.World) {
			if w.MyPE() == 0 {
				rx.handled.Store(0)
				// Warm-up Seqs start on a batch boundary past every timed one.
				for b := uint64(0); b < streamWarmup/streamBatch; b++ {
					batch(w, nil, (streamCap/streamBatch+1+b)*streamBatch, streamBatch, false)
				}
			}
		},
		func(w *runtime.World) {
			if w.MyPE() != 0 {
				return
			}
			deadline := time.Now().Add(o.timed)
			a := takeSnapshot(w)
			for sent+streamBatch <= streamCap && time.Now().Before(deadline) && !o.tr.full(2*streamBatch+2) {
				batch(w, o.tr, uint64(sent), streamBatch, true)
				sent += streamBatch
			}
			m.finish(a, takeSnapshot(w), float64(sent))
			m.layer["proc.idle_cpu_pct"] = measureIdle()
		})
	if err != nil {
		return nil, err
	}
	m.setupS = setup
	m.attempted = sent
	if h := rx.handled.Load(); h != int64(sent+streamWarmup) {
		m.violate("stream: receiver ran %d handlers, want %d", h, sent+streamWarmup)
	}
	if c := rx.corrupt.Load(); c > 0 {
		m.violate("stream: %d payloads arrived corrupted", c)
	}

	sampled := sent / streamSampleEv
	oneWay := make([]int64, sampled)
	fwd := make([]int64, sampled)
	for i := range oneWay {
		oneWay[i] = rx.oneWay[i].Load()
		fwd[i] = oneWay[i] - issueNs[i]
	}
	m.latNs = oneWay
	m.lat = summarize(m.latNs)
	fw := summarize(fwd)
	m.layer["am.issue_p50_us"] = summarize(issueNs[:sampled]).P50.US
	m.layer["am.fwd_p50_us"] = fw.P50.US
	m.layer["am.fwd_p90_us"] = fw.P90.US
	m.layer["runtime.waitall_ms"] = summarize(waitNs).P50.US / 1e3
	m.named = []namedValue{{"stream_kams", "kAM/s", ratio(m.ops/1e3, m.wall.Seconds())}}
	return m, nil
}
