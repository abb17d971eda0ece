package sim

import "testing"

// TestTickerStopThenReset is the stop-then-reuse contract: a stopped
// ticker's event stays cancel-flagged in the queue, and Reset must
// revive it — clearing the flag and re-keying in place — so the ticker
// fires again on the new grid.
func TestTickerStopThenReset(t *testing.T) {
	e := NewEngine()
	var fired []Time
	tk := e.ScheduleEvery(10, 10, func() { fired = append(fired, e.Now()) })
	e.RunUntil(25) // ticks at 10, 20
	tk.Stop()
	e.RunUntil(100) // stopped: nothing fires
	if len(fired) != 2 {
		t.Fatalf("pre-reset ticks = %v, want [10 20]", fired)
	}
	tk.Reset(150)
	e.RunUntil(175) // ticks at 150, 160, 170
	want := []Time{10, 20, 150, 160, 170}
	if len(fired) != len(want) {
		t.Fatalf("ticks = %v, want %v", fired, want)
	}
	for i, at := range want {
		if fired[i] != at {
			t.Fatalf("tick %d at %v, want %v", i, fired[i], at)
		}
	}
}

// TestTickerStopWhilePendingThenReset stops the ticker while its event
// is still queued (between firings, from a foreign event) and resets it:
// Reset must re-key the still-pending cancel-flagged event in place
// rather than panic or leave it dead.
func TestTickerStopWhilePendingThenReset(t *testing.T) {
	e := NewEngine()
	ticks := 0
	tk := e.ScheduleEvery(10, 10, func() { ticks++ })
	e.Schedule(15, func() { // between ticks: tk.ev pending at 20
		tk.Stop()
		tk.Reset(30)
	})
	e.RunUntil(45) // tick at 10; reset moves 20 → 30; ticks at 30, 40
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3 (10, 30, 40)", ticks)
	}
}

// TestTickerStopFromWithinFnThenReset covers stop-from-within-fn: the
// callback stops its own ticker (event already popped, cancel flag set
// on a fired event), and a later Reset must re-arm it cleanly.
func TestTickerStopFromWithinFnThenReset(t *testing.T) {
	e := NewEngine()
	var fired []Time
	var tk *Ticker
	tk = e.ScheduleEvery(10, 10, func() {
		fired = append(fired, e.Now())
		if e.Now() == 20 {
			tk.Stop() // self-stop: no re-arm after this firing
		}
	})
	e.Schedule(50, func() { tk.Reset(60) })
	e.RunUntil(85) // ticks 10, 20 (self-stop), then 60, 70, 80
	want := []Time{10, 20, 60, 70, 80}
	if len(fired) != len(want) {
		t.Fatalf("ticks = %v, want %v", fired, want)
	}
	for i, at := range want {
		if fired[i] != at {
			t.Fatalf("tick %d at %v, want %v", i, fired[i], at)
		}
	}
}

// TestTickerResetZeroAlloc pins the reuse contract: stop/reset cycles
// ride the ticker's single event, never allocating a new one.
func TestTickerResetZeroAlloc(t *testing.T) {
	e := NewEngine()
	ticks := 0
	tk := e.ScheduleEvery(10, 10, func() { ticks++ })
	e.RunUntil(25)
	allocs := testing.AllocsPerRun(100, func() {
		tk.Stop()
		tk.Reset(e.Now().Add(5))
		e.RunFor(20)
	})
	if allocs != 0 {
		t.Fatalf("stop/reset cycle allocates %v per run, want 0", allocs)
	}
	if ticks == 0 {
		t.Fatal("ticker never fired")
	}
}
