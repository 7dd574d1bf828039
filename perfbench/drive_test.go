package main

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// The loop is closed: a request leaves only after the previous one
// completed, issuing stops at the deadline, and failures are counted.
func TestDriveClosedLoop(t *testing.T) {
	const n = 1000
	lat := make([]int64, n)
	var inflight, maxInflight atomic.Int32
	until := time.Now().Add(30 * time.Millisecond)
	issued, failed := drive(n, until, func(i int, done func(error)) {
		if c := inflight.Add(1); c > maxInflight.Load() {
			maxInflight.Store(c)
		}
		var err error
		if i == 2 {
			err = errors.New("refused")
		}
		time.AfterFunc(time.Millisecond, func() { inflight.Add(-1); done(err) })
	}, lat)
	if failed != 1 || maxInflight.Load() != 1 {
		t.Fatalf("failed %d, max in flight %d", failed, maxInflight.Load())
	}
	if issued < 5 || issued > 31 {
		t.Fatalf("issued %d requests of 1 ms each in 30 ms", issued)
	}
	for i := 0; i < issued; i++ {
		if lat[i] < int64(time.Millisecond) || lat[i] > int64(20*time.Millisecond) {
			t.Errorf("request %d: latency %v, want about 1 ms", i, time.Duration(lat[i]))
		}
	}
}

// A generator stall inside the issue call, here 30 ms, is charged to that
// request's latency rather than vanishing from the measurement.
func TestDriveChargesIssueStall(t *testing.T) {
	const (
		n       = 20
		stallAt = 10
		stall   = 30 * time.Millisecond
	)
	lat := make([]int64, n)
	issued, failed := drive(n, time.Time{}, func(i int, done func(error)) {
		if i == stallAt {
			time.Sleep(stall)
		}
		time.AfterFunc(100*time.Microsecond, func() { done(nil) })
	}, lat)
	if issued != n || failed != 0 {
		t.Fatalf("issued %d, failed %d", issued, failed)
	}
	if got := time.Duration(lat[stallAt]); got < stall {
		t.Errorf("stalled request latency %v, want >= %v", got, stall)
	}
	for i, l := range lat {
		if i != stallAt && time.Duration(l) >= stall {
			t.Errorf("request %d: latency %v charged with the stall", i, time.Duration(l))
		}
	}
}
