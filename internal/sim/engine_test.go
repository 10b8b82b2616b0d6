package sim

import (
	"math/rand"
	"strings"
	"testing"

	"tetriswrite/internal/units"
)

func TestEventOrdering(t *testing.T) {
	var e Engine
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("execution order %v, want [1 2 3]", got)
	}
	if e.Now() != 30 {
		t.Errorf("Now = %v, want 30", e.Now())
	}
	if e.Processed() != 3 {
		t.Errorf("Processed = %d, want 3", e.Processed())
	}
}

func TestTieBreakIsInsertionOrder(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events ran out of insertion order: %v", got)
		}
	}
}

func TestCascadedScheduling(t *testing.T) {
	var e Engine
	var trace []units.Time
	var ping func()
	n := 0
	ping = func() {
		trace = append(trace, e.Now())
		n++
		if n < 5 {
			e.After(7, ping)
		}
	}
	e.At(0, ping)
	e.Run()
	for i, at := range trace {
		if at != units.Time(i*7) {
			t.Fatalf("cascade times %v", trace)
		}
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	var e Engine
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestRunUntil(t *testing.T) {
	var e Engine
	ran := 0
	e.At(10, func() { ran++ })
	e.At(20, func() { ran++ })
	e.At(30, func() { ran++ })
	e.RunUntil(20)
	if ran != 2 {
		t.Errorf("ran %d events, want 2", ran)
	}
	if e.Now() != 20 {
		t.Errorf("Now = %v, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	e.RunUntil(30)
	if ran != 3 || e.Now() != 30 {
		t.Errorf("after RunUntil(30): ran=%d now=%v", ran, e.Now())
	}
}

func TestRunUntilAdvancesIdleTime(t *testing.T) {
	var e Engine
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Errorf("idle RunUntil left Now at %v", e.Now())
	}
}

// TestDeterminism: a random workload of self-scheduling events executes
// identically twice.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []units.Time {
		var e Engine
		rng := rand.New(rand.NewSource(seed))
		var trace []units.Time
		var spawn func(depth int)
		spawn = func(depth int) {
			trace = append(trace, e.Now())
			if depth < 4 {
				for i := 0; i < 2; i++ {
					e.After(units.Duration(rng.Intn(50)), func() { spawn(depth + 1) })
				}
			}
		}
		e.At(0, func() { spawn(0) })
		e.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkEngine(b *testing.B) {
	var e Engine
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(1, tick)
		}
	}
	e.At(0, tick)
	e.Run()
}

// After(0) schedules at the current instant but still behind every event
// already queued for that instant: insertion order is the tiebreak, so a
// zero-delay hop cannot jump ahead of earlier same-time work.
func TestAfterZeroDelay(t *testing.T) {
	var eng Engine
	var order []string
	eng.At(10, func() { order = append(order, "a") })
	eng.At(10, func() {
		order = append(order, "b")
		eng.After(0, func() { order = append(order, "d") })
	})
	eng.At(10, func() { order = append(order, "c") })
	eng.Run()
	if got := strings.Join(order, ""); got != "abcd" {
		t.Errorf("order = %q, want abcd", got)
	}
	if eng.Now() != 10 {
		t.Errorf("now = %v after zero-delay chain, want 10", eng.Now())
	}
}

// Same-timestamp events scheduled *during* the run still execute in
// insertion order relative to each other, matching pre-run scheduling.
func TestSameTimestampSchedulingDuringRun(t *testing.T) {
	run := func() []int {
		var eng Engine
		var order []int
		eng.At(5, func() {
			for i := 0; i < 8; i++ {
				i := i
				eng.After(7, func() { order = append(order, i) })
			}
		})
		eng.At(12, func() { order = append(order, 100) })
		eng.Run()
		return order
	}
	first := run()
	want := []int{100, 0, 1, 2, 3, 4, 5, 6, 7} // At(12) was inserted first
	if len(first) != len(want) {
		t.Fatalf("got %v, want %v", first, want)
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("got %v, want %v", first, want)
		}
	}
	for trial := 0; trial < 10; trial++ {
		again := run()
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("nondeterministic same-timestamp order: %v vs %v", again, first)
			}
		}
	}
}

// A periodic self-rescheduling observer — the telemetry sampler's shape —
// must re-arm only while other work is pending, or Run would never
// return. This pins the contract the sampler relies on: Pending() inside
// a callback counts the *other* queued events.
func TestSelfReschedulingObserver(t *testing.T) {
	var eng Engine
	var ticks []units.Time
	const period = 10

	// Workload: a chain of 5 events, 25 time units apart.
	var chain func(n int)
	chain = func(n int) {
		if n == 0 {
			return
		}
		eng.After(25, func() { chain(n - 1) })
	}
	chain(5)

	var tick func()
	tick = func() {
		ticks = append(ticks, eng.Now())
		if eng.Pending() > 0 {
			eng.After(period, tick)
		}
	}
	eng.After(period, tick)
	eng.Run()

	if len(ticks) == 0 {
		t.Fatal("observer never ticked")
	}
	for i, at := range ticks {
		if want := units.Time((i + 1) * period); at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
	// The last tick must land at or after the last workload event (125)
	// and the observer must then stop rather than spin forever.
	if last := ticks[len(ticks)-1]; last < 125 || last > 125+period {
		t.Errorf("last tick at %v, want within one period after 125", last)
	}
	if eng.Pending() != 0 {
		t.Errorf("%d events still queued after Run returned", eng.Pending())
	}
}
