package main

import (
	"runtime"
	"time"
)

// clock is the time source of the open-loop scheduler; tests replace it
// with simulated time.
type clock interface {
	now() time.Time
	waitUntil(t time.Time)
}

type realClock struct{}

func (realClock) now() time.Time { return time.Now() }

// waitUntil sleeps most of the way and yields the rest: time.Sleep
// alone overshoots by up to a millisecond, which would show as
// generator lag at every request.
func (realClock) waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > 300*time.Microsecond:
			time.Sleep(d - 200*time.Microsecond)
		default:
			runtime.Gosched()
		}
	}
}

// laneResult is what one open-loop lane measured.
type laneResult struct {
	latencyMs  []float64 // due time to completion, successful operations only
	lagMs      []float64 // how late the generator itself sent, see openLoop
	backlogMax int       // most operations due but not yet sent
	backlogEnd int       // the same when the last operation was sent
	attempted  int
	failed     int
}

// openLoop sends n operations on one lane at a fixed rate, as an
// independent client would: operation i is due at start + i*interval
// whatever happened to the ones before it. The lane sends one operation
// at a time, so when the system stalls, later operations are sent late;
// each is still timed from its due time, which charges the stall to
// every operation that came due during it instead of hiding it
// (coordinated omission). Generator lag is the lateness the generator
// itself adds: from when an operation could first be sent, its due time
// or the previous completion if that came later, to when it was. do
// reports whether the operation succeeded.
func openLoop(clk clock, start time.Time, interval time.Duration, n int, do func(i int, due time.Time) bool) laneResult {
	var r laneResult
	free := start // when the lane finished its previous operation
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		clk.waitUntil(due)
		sent := clk.now()
		if due.After(free) {
			free = due
		}
		r.lagMs = append(r.lagMs, ms(sent.Sub(free)))
		r.backlogEnd = int(sent.Sub(due) / interval)
		if r.backlogEnd > r.backlogMax {
			r.backlogMax = r.backlogEnd
		}
		r.attempted++
		ok := do(i, due)
		free = clk.now()
		if ok {
			r.latencyMs = append(r.latencyMs, ms(free.Sub(due)))
		} else {
			r.failed++
		}
	}
	return r
}
