package main

import "time"

// drive issues up to n requests from the calling goroutine in a closed
// loop, one outstanding at a time, stopping early once until has passed
// (a zero until never stops it). It returns how many it issued and how
// many of those failed. issue(i, done) submits request i and calls
// done(err) exactly once, possibly on another goroutine. lat[i] receives
// request i's latency, counted from the moment drive calls issue, so time
// the issue call itself blocks the generator counts too.
func drive(n int, until time.Time, issue func(i int, done func(error)), lat []int64) (issued, failed int) {
	done := make(chan error, 1)
	for ; issued < n && (until.IsZero() || time.Now().Before(until)); issued++ {
		i, t0 := issued, time.Now()
		issue(i, func(err error) {
			lat[i] = int64(time.Since(t0))
			done <- err
		})
		if err := <-done; err != nil {
			failed++
		}
	}
	return issued, failed
}
