package memctrl

import (
	"testing"

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/units"
)

// DrainLow's three input regimes must normalize as documented: 0 is
// "unset" (default half the queue), DrainToEmpty / any negative means
// drain to exactly empty, positive values are clamped to the queue size —
// and normalizing twice must not reinterpret the result.
func TestDrainLowNormalization(t *testing.T) {
	cases := []struct {
		name       string
		writeQueue int
		drainLow   int
		want       int
	}{
		{"unset takes half the default queue", 0, 0, 16},
		{"unset takes half a custom queue", 8, 0, 4},
		{"DrainToEmpty means zero", 8, DrainToEmpty, 0},
		{"any negative means zero", 8, -7, 0},
		{"explicit depth is kept", 8, 3, 3},
		{"depth clamps to the queue", 8, 100, 8},
		{"queue of one defaults to zero", 1, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{WriteQueue: tc.writeQueue, DrainLow: tc.drainLow}
			cfg.Normalize()
			if cfg.DrainLow != tc.want {
				t.Fatalf("DrainLow = %d, want %d", cfg.DrainLow, tc.want)
			}
			// Idempotency: a second Normalize must not turn an effective
			// 0 ("drain to empty") back into the default.
			cfg.Normalize()
			if cfg.DrainLow != tc.want {
				t.Fatalf("second Normalize changed DrainLow to %d, want %d", cfg.DrainLow, tc.want)
			}
		})
	}
}

// A DrainToEmpty controller must drain the whole queue once it starts.
func TestDrainToEmptyDrainsWholeQueue(t *testing.T) {
	eng, c, _ := testController(Config{WriteQueue: 4, DrainLow: DrainToEmpty})
	data := make([]byte, 64)
	eng.At(0, func() {
		for i := 0; i < 4; i++ {
			data[0] = byte(i)
			if !c.SubmitWrite(pcm.LineAddr(i*8), data, nil) {
				t.Errorf("write %d rejected", i)
			}
		}
	})
	// Probe mid-drain: after the queue has space again the controller
	// must still be draining until it is empty.
	eng.At(units.Time(1*units.Microsecond), func() {
		if _, writes := c.QueueDepths(); writes > 0 && !c.Draining() {
			t.Errorf("drain stopped with %d writes still queued", writes)
		}
	})
	eng.Run()
	if _, writes := c.QueueDepths(); writes != 0 {
		t.Fatalf("%d writes left after run", writes)
	}
	if c.Stats().DrainExits == 0 {
		t.Fatalf("drain never recorded its exit")
	}
}

// The write enqueue path must be allocation-free in steady state: request
// structs and payload copies come from the controller's freelists. The
// submissions here land on a non-draining controller, so this isolates
// SubmitWrite itself (the full write cycle additionally pays for engine
// event closures, covered by the cycle bound test below).
func TestSubmitWriteZeroAllocsSteadyState(t *testing.T) {
	eng, c, _ := testController(Config{WriteQueue: 64})
	data := make([]byte, 64)
	addr := 0
	// Warm the freelists deeper than the measurement loop submits: the
	// measured writes stay queued (no drain), so each one consumes a
	// recycled request without returning it.
	eng.At(0, func() {
		for i := 0; i < 32; i++ {
			c.SubmitWrite(pcm.LineAddr(i*8), data, nil)
		}
	})
	eng.At(1, func() { c.WhenIdle(func() {}) })
	eng.Run()

	allocs := testing.AllocsPerRun(20, func() {
		// Distinct banks/lines so coalescing does not short-circuit the
		// request construction under test.
		addr++
		c.SubmitWrite(pcm.LineAddr(addr*8), data, nil)
	})
	if allocs != 0 {
		t.Fatalf("SubmitWrite allocates %v objects/op in steady state, want 0", allocs)
	}
}

// A read served by store-to-load forwarding allocates nothing in steady
// state: its completion event and payload snapshot are recycled.
func TestForwardedReadZeroAllocs(t *testing.T) {
	eng, c, _ := testController(Config{})
	data := make([]byte, 64)
	data[5] = 0x5a
	var got byte
	onDone := func(_ units.Time, d []byte) { got = d[5] }
	eng.At(0, func() { c.SubmitWrite(8, data, nil) }) // stays queued (no drain)
	eng.Run()
	read := func() {
		if !c.SubmitRead(8, onDone) {
			t.Fatal("forwarded read rejected")
		}
		eng.Run()
	}
	read() // warm the event and payload freelists
	allocs := testing.AllocsPerRun(50, read)
	if allocs != 0 {
		t.Fatalf("forwarded read allocates %v objects/op, want 0", allocs)
	}
	if got != 0x5a || c.Stats().ForwardedReads != 52 {
		t.Fatalf("forwarded %#x over %d reads, want 0x5a over 52", got, c.Stats().ForwardedReads)
	}
}

// Full write cycles (enqueue, plan, execute, complete) recycle requests,
// payloads, plans, and packer state; what remains is the engine's event
// closures. Pin a small empirical ceiling so hot-path regressions (a new
// per-write buffer, a dropped freelist) fail loudly.
func TestWriteCycleAllocBound(t *testing.T) {
	eng := &sim.Engine{}
	dev := pcm.MustNewDevice(pcm.DefaultParams())
	c := New(eng, dev, tetris.New, Config{OpportunisticWrites: true})
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i * 11)
	}
	cycle := func() {
		c.SubmitWrite(pcm.LineAddr(8), data, nil)
		eng.Run()
	}
	for i := 0; i < 4; i++ {
		cycle() // warm freelists and scratch arenas
	}
	allocs := testing.AllocsPerRun(50, cycle)
	// Three engine events per cycle (submit kick, write completion,
	// schedule follow-up), each an event struct plus closure context.
	const ceiling = 8
	if allocs > ceiling {
		t.Fatalf("write cycle allocates %v objects/op, want <= %d", allocs, ceiling)
	}
}
