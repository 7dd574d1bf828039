package main

import (
	"time"

	"repro/internal/runtime"
	"repro/internal/serde"
)

// pingpong: closed loop, one client, one outstanding request. PE 0 sends a
// return-style AM to PE 1 and blocks on the reply before the next call, so
// every step of the round trip blocks the result and no batching hides it.

const (
	pingCap    = 1 << 19 // most round trips one timed phase records
	pingWarmup = 50
)

// pingAM asks PE 1 for Val+1. Req is the request id, so the handler's span
// can be tied to the issuing span on PE 0.
type pingAM struct{ Req, Val uint64 }

func (a *pingAM) MarshalLamellar(e *serde.Encoder) { e.PutU64(a.Req); e.PutU64(a.Val) }

func (a *pingAM) UnmarshalLamellar(d *serde.Decoder) error {
	a.Req, a.Val = d.U64(), d.U64()
	return d.Err()
}

// Exec replies with Val+1 and the handler's start and end stamps on the
// benchmark clock.
func (a *pingAM) Exec(ctx *runtime.Context) any {
	start := now()
	v := a.Val + 1
	end := now()
	if a.Req != 0 { // 0 marks warm-up traffic
		activeTracer.record("handler.exec", 0, uint32(a.Req), ctx.CurrentPE(), start, end)
	}
	return []int64{int64(v), start, end}
}

func init() { runtime.RegisterAM[pingAM]("perfbench.ping") }

func runPingpong(o runOpts) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}}
	rtt := make([]int64, pingCap)
	issue := make([]int64, pingCap)
	fwd := make([]int64, pingCap)
	ret := make([]int64, pingCap)
	r := rng{s: o.seed ^ 0x9149}

	// roundTrip makes request req, recording spans into tr, and reports its
	// stamps: call entry, call return, handler start, handler end, BlockOn
	// return.
	roundTrip := func(w *runtime.World, tr *tracer, req uint32) (stamps [5]int64, ok bool) {
		val := r.next()
		root := tr.begin("req.pingpong", 0, req, 0)
		stamps[0] = now()
		sp := tr.begin("runtime.exec_am_return", root, req, 0)
		f := w.ExecAMReturn(1, &pingAM{Req: uint64(req), Val: val})
		tr.end(sp)
		stamps[1] = now()
		sp = tr.begin("runtime.block_on", root, req, 0)
		v, err := runtime.BlockOn(w, f)
		tr.end(sp)
		stamps[4] = now()
		tr.end(root)
		reply, isInts := v.([]int64)
		if err != nil || !isInts || len(reply) != 3 || uint64(reply[0]) != val+1 {
			m.violate("pingpong request %d: reply %v, error %v; want %d", req, v, err, val+1)
			return stamps, false
		}
		stamps[2], stamps[3] = reply[1], reply[2]
		return stamps, true
	}

	setup, err := runWorld(worldConfig(runtime.LamellaeSim, nil),
		func(w *runtime.World) {
			if w.MyPE() == 0 {
				for i := 0; i < pingWarmup; i++ {
					roundTrip(w, nil, 0)
				}
			}
		},
		func(w *runtime.World) {
			if w.MyPE() != 0 {
				return
			}
			n := 0
			deadline := time.Now().Add(o.timed)
			a := takeSnapshot(w)
			for n < pingCap && time.Now().Before(deadline) {
				m.attempted++
				s, ok := roundTrip(w, o.tr, uint32(m.attempted))
				if !ok {
					continue
				}
				rtt[n], issue[n], fwd[n], ret[n] = s[4]-s[0], s[1]-s[0], s[2]-s[1], s[4]-s[3]
				n++
			}
			m.finish(a, takeSnapshot(w), float64(n))
			m.layer["proc.idle_cpu_pct"] = measureIdle()
			rtt, issue, fwd, ret = rtt[:n], issue[:n], fwd[:n], ret[:n]
		})
	if err != nil {
		return nil, err
	}
	m.setupS = setup
	m.latNs = rtt
	m.lat = summarize(m.latNs)
	is, fw, rt := summarize(issue), summarize(fwd), summarize(ret)
	m.layer["am.issue_p50_us"] = is.P50.US
	m.layer["am.fwd_p50_us"] = fw.P50.US
	m.layer["am.fwd_p90_us"] = fw.P90.US
	m.layer["am.ret_p50_us"] = rt.P50.US
	m.layer["am.ret_p90_us"] = rt.P90.US
	m.named = []namedValue{
		{"rtt_p50_us", "us", m.lat.P50.US},
		{"rtt_p90_us", "us", m.lat.P90.US},
	}
	return m, nil
}
