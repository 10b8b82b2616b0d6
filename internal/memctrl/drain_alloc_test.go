package memctrl

import (
	"testing"

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/units"
)

// The write enqueue path must be allocation-free in steady state: request
// structs and payload copies come from the controller's freelists. The
// submissions here land on a non-draining controller, so this isolates
// SubmitWrite itself (the full write cycle additionally pays for engine
// event closures, covered by the cycle bound test below).
func TestSubmitWriteZeroAllocsSteadyState(t *testing.T) {
	eng, c, _ := testController(Config{})
	data := make([]byte, 64)
	addr := 0
	// Warm the freelists deeper than the measurement loop submits: a
	// full queue, flushed, recycles WriteQueue requests. The measured
	// writes stay queued (one short of full, so no drain), so each one
	// consumes a recycled request without returning it.
	eng.At(0, func() {
		for i := 0; i < WriteQueue; i++ {
			c.SubmitWrite(pcm.LineAddr(i*8), data, nil)
		}
	})
	eng.At(1, func() { c.WhenIdle(func() {}) })
	eng.Run()

	allocs := testing.AllocsPerRun(WriteQueue-2, func() {
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
