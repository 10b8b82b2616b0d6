package memctrl

import (
	"math/rand"
	"testing"

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/units"
)

func testController(cfg Config) (*sim.Engine, *Controller, *pcm.Device) {
	eng := &sim.Engine{}
	dev := pcm.MustNewDevice(pcm.DefaultParams())
	c := New(eng, dev, schemes.NewDCW, cfg)
	return eng, c, dev
}

func TestReadLatencyIdleBank(t *testing.T) {
	eng, c, dev := testController(Config{})
	line := make([]byte, 64)
	line[0] = 0xAB
	dev.WriteLine(8, line) // bank 0
	var gotAt units.Time
	var gotData []byte
	eng.At(0, func() {
		if !c.SubmitRead(8, func(at units.Time, data []byte) {
			gotAt, gotData = at, data
		}) {
			t.Error("read rejected on empty queue")
		}
	})
	eng.Run()
	if want := units.Time(50 * units.Nanosecond); gotAt != want {
		t.Errorf("read completed at %v, want %v (TRead)", gotAt, want)
	}
	if gotData[0] != 0xAB {
		t.Errorf("read data[0] = %#x, want 0xAB", gotData[0])
	}
	if c.Stats().Reads != 1 {
		t.Errorf("Reads = %d, want 1", c.Stats().Reads)
	}
}

func TestWritesWaitForDrain(t *testing.T) {
	eng, c, _ := testController(Config{})
	data := make([]byte, 64)
	data[0] = 1
	completions := 0
	eng.At(0, func() {
		// One write short of full: no drain, nothing services them.
		for i := 0; i < WriteQueue-1; i++ {
			if !c.SubmitWrite(pcm.LineAddr(i), data, func(units.Time) { completions++ }) {
				t.Error("write rejected below capacity")
			}
		}
	})
	eng.RunUntil(units.Time(100 * units.Microsecond))
	if completions != 0 {
		t.Fatalf("%d writes serviced without a drain", completions)
	}
	if c.Draining() {
		t.Fatal("drain started below high-water mark")
	}
	// The last write fills the queue and triggers the drain, which runs
	// until the low-water mark (half the queue).
	eng.At(eng.Now(), func() {
		c.SubmitWrite(WriteQueue-1, data, func(units.Time) { completions++ })
	})
	eng.Run()
	if completions != WriteQueue-DrainLow {
		t.Fatalf("drained %d writes, want %d (down to the low-water mark)", completions, WriteQueue-DrainLow)
	}
	if c.Stats().Drains != 1 {
		t.Errorf("Drains = %d, want 1", c.Stats().Drains)
	}
	// The end-of-run flush drains the rest.
	eng.At(eng.Now(), func() { c.WhenIdle(func() {}) })
	eng.Run()
	if completions != WriteQueue {
		t.Fatalf("after flush: %d writes done, want %d", completions, WriteQueue)
	}
}

func TestOpportunisticWrites(t *testing.T) {
	eng, c, _ := testController(Config{OpportunisticWrites: true})
	data := make([]byte, 64)
	data[5] = 7
	done := false
	eng.At(0, func() {
		c.SubmitWrite(1, data, func(units.Time) { done = true })
	})
	eng.Run()
	if !done {
		t.Error("opportunistic write never serviced")
	}
}

func TestReadPriorityOverWrites(t *testing.T) {
	// Fill the write queue for bank 0, then submit a read to the same
	// bank: the read must be serviced before the drain's remaining writes.
	eng, c, _ := testController(Config{DisableCoalescing: true})
	data := make([]byte, 64)
	data[0] = 0xFF
	var readDone, writesDone units.Time
	wrote := 0
	eng.At(0, func() {
		for i := 0; i < WriteQueue; i++ {
			// All to bank 0 (addresses multiples of 8 banks).
			c.SubmitWrite(pcm.LineAddr(i*8), data, func(at units.Time) {
				wrote++
				if wrote == WriteQueue-DrainLow {
					writesDone = at
				}
			})
		}
	})
	// A read arrives shortly after the drain begins; one write is already
	// in flight, but the read must jump the remaining queued writes.
	eng.At(units.Time(10*units.Nanosecond), func() {
		c.SubmitRead(64, func(at units.Time, _ []byte) { readDone = at })
	})
	eng.Run()
	if readDone == 0 || writesDone == 0 {
		t.Fatal("requests did not complete")
	}
	if readDone >= writesDone {
		t.Errorf("read finished at %v, after all writes (%v); read priority broken", readDone, writesDone)
	}
}

func TestStoreForwarding(t *testing.T) {
	eng, c, _ := testController(Config{})
	data := make([]byte, 64)
	data[3] = 0x42
	var fwd []byte
	var fwdAt units.Time
	eng.At(0, func() {
		c.SubmitWrite(2, data, nil) // sits in the write queue (no drain)
		c.SubmitRead(2, func(at units.Time, d []byte) { fwd, fwdAt = append([]byte(nil), d...), at })
	})
	eng.RunUntil(units.Time(10 * units.Microsecond))
	if fwd == nil {
		t.Fatal("forwarded read never completed")
	}
	if fwd[3] != 0x42 {
		t.Errorf("forwarded data wrong: %#x", fwd[3])
	}
	if fwdAt > units.Time(10*units.Nanosecond) {
		t.Errorf("forwarding took %v, want ~1 bus cycle", fwdAt)
	}
	if c.Stats().ForwardedReads != 1 {
		t.Errorf("ForwardedReads = %d, want 1", c.Stats().ForwardedReads)
	}
}

func TestWriteCoalescing(t *testing.T) {
	eng, c, dev := testController(Config{})
	d1 := make([]byte, 64)
	d2 := make([]byte, 64)
	d1[0], d2[0] = 1, 2
	eng.At(0, func() {
		c.SubmitWrite(4, d1, nil)
		c.SubmitWrite(4, d2, nil)
		if _, w := c.QueueDepths(); w != 1 {
			t.Errorf("write queue depth %d after coalescing, want 1", w)
		}
		c.WhenIdle(func() {})
	})
	eng.Run()
	buf := make([]byte, 64)
	dev.PeekLine(4, buf)
	if buf[0] != 2 {
		t.Errorf("coalesced write stored %#x, want the younger value 2", buf[0])
	}
	if c.Stats().Coalesced != 1 {
		t.Errorf("Coalesced = %d, want 1", c.Stats().Coalesced)
	}
}

func TestBankParallelism(t *testing.T) {
	// Reads to two different banks must overlap: both finish at TRead.
	eng, c, _ := testController(Config{})
	var t0, t1 units.Time
	eng.At(0, func() {
		c.SubmitRead(0, func(at units.Time, _ []byte) { t0 = at })
		c.SubmitRead(1, func(at units.Time, _ []byte) { t1 = at })
	})
	eng.Run()
	tread := units.Time(50 * units.Nanosecond)
	if t0 != tread || t1 != tread {
		t.Errorf("parallel reads finished at %v, %v; want both %v", t0, t1, tread)
	}
	// Same bank: serialized.
	eng2, c2, _ := testController(Config{})
	eng2.At(0, func() {
		c2.SubmitRead(0, func(at units.Time, _ []byte) { t0 = at })
		c2.SubmitRead(8, func(at units.Time, _ []byte) { t1 = at })
	})
	eng2.Run()
	if t1 != 2*tread {
		t.Errorf("serialized read finished at %v, want %v", t1, 2*tread)
	}
}

func TestWhenIdleFlushes(t *testing.T) {
	eng, c, dev := testController(Config{})
	data := make([]byte, 64)
	data[0] = 9
	idle := false
	eng.At(0, func() {
		c.SubmitWrite(5, data, nil)
		c.WhenIdle(func() { idle = true })
	})
	eng.Run()
	if !idle {
		t.Fatal("WhenIdle never fired")
	}
	buf := make([]byte, 64)
	dev.PeekLine(5, buf)
	if buf[0] != 9 {
		t.Error("flush did not write pending data")
	}
}

func TestQueueRejection(t *testing.T) {
	// All writes target bank 0, so the drain can only retire one at a
	// time and the queue stays full at the instant of the overflowing
	// submit.
	eng, c, _ := testController(Config{DisableCoalescing: true})
	data := make([]byte, 64)
	eng.At(0, func() {
		for i := 0; i < WriteQueue; i++ {
			if !c.SubmitWrite(pcm.LineAddr(i*8), data, nil) {
				t.Errorf("write %d rejected below capacity", i)
			}
		}
		// The fill started a drain: bank 0 took one entry synchronously.
		if !c.SubmitWrite(WriteQueue*8, data, nil) {
			t.Error("write rejected with space available")
		}
		if c.SubmitWrite((WriteQueue+1)*8, data, nil) {
			t.Error("write accepted beyond capacity (bank busy, queue full)")
		}
		if c.Stats().StallRejects != 1 {
			t.Errorf("StallRejects = %d, want 1", c.Stats().StallRejects)
		}
		woken := false
		c.WhenWriteSpace(func() { woken = true })
		c.WhenIdle(func() {
			if !woken {
				t.Error("WhenWriteSpace never woke")
			}
		})
	})
	eng.Run()
}

// TestRandomTrafficConsistency: random reads and writes through the
// controller must always return the data of the most recent write to the
// address (the golden-model check), regardless of queueing, forwarding,
// coalescing and drains.
func TestRandomTrafficConsistency(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{DisableCoalescing: true},
		{OpportunisticWrites: true},
	} {
		eng, c, _ := testController(cfg)
		rng := rand.New(rand.NewSource(1))
		golden := map[pcm.LineAddr][]byte{}
		pending := 0
		var step func()
		n := 0
		step = func() {
			if n >= 400 {
				return
			}
			n++
			addr := pcm.LineAddr(rng.Intn(32))
			if rng.Intn(2) == 0 {
				data := make([]byte, 64)
				rng.Read(data)
				if c.SubmitWrite(addr, data, nil) {
					golden[addr] = data
				}
			} else {
				want, ok := golden[addr]
				if ok {
					wantCopy := append([]byte(nil), want...)
					pending++
					c.SubmitRead(addr, func(_ units.Time, got []byte) {
						pending--
						for i := range got {
							if got[i] != wantCopy[i] {
								t.Errorf("cfg %+v: stale read at addr %d", cfg, addr)
								return
							}
						}
					})
				}
			}
			eng.After(units.Duration(rng.Intn(500))*units.Nanosecond, step)
		}
		eng.At(0, step)
		eng.Run()
		// Note: reads may legitimately observe *newer* data than the
		// golden value captured at submit time if a later write lands
		// first — avoided here because the golden map is updated at
		// submit time and reads forward from the queue; any mismatch
		// above means a genuinely stale value.
		_ = pending
	}
}

// TestWriteLatencyAccounting: latency includes queueing delay.
func TestWriteLatencyAccounting(t *testing.T) {
	eng, c, _ := testController(Config{DisableCoalescing: true})
	data := make([]byte, 64)
	data[0] = 1
	eng.At(0, func() {
		for i := 0; i < WriteQueue; i++ {
			c.SubmitWrite(pcm.LineAddr(i*8), data, nil) // the last fills the queue -> drain (same bank)
		}
	})
	eng.Run()
	st := c.Stats()
	const drained = WriteQueue - DrainLow
	if st.WriteLatency.Count() != drained {
		t.Fatalf("WriteLatency count = %d, want %d", st.WriteLatency.Count(), drained)
	}
	// DCW service is 50ns + 8*430 = 3490ns; each drained write also
	// waits for the ones before it, so the last one's latency is ~16x.
	if st.WriteLatency.Max() < drained*units.Nanoseconds(3490) {
		t.Errorf("max write latency %v does not include queueing", st.WriteLatency.Max())
	}
	if st.WriteUnits != 8*drained { // DCW writes at 8 units each
		t.Errorf("WriteUnits = %v, want %d", st.WriteUnits, 8*drained)
	}
}

// TestRandomTrafficConsistencyStale documents the read-path guarantee: a
// read submitted after a write completes sees that write's data.
func TestReadsSeeCompletedWrites(t *testing.T) {
	eng, c, _ := testController(Config{OpportunisticWrites: true})
	data := make([]byte, 64)
	data[7] = 0x77
	eng.At(0, func() {
		c.SubmitWrite(3, data, func(at units.Time) {
			c.SubmitRead(3, func(_ units.Time, got []byte) {
				if got[7] != 0x77 {
					t.Error("read after completed write returned stale data")
				}
			})
		})
	})
	eng.Run()
}

func TestWritePausingServesReadEarly(t *testing.T) {
	// Bank 0 is busy with a slow DCW write (3490ns). A read to the same
	// bank arrives mid-write. Without pausing it waits for the write;
	// with pausing it completes after ~Treset + TRead.
	run := func(pausing bool) (readAt, writeAt units.Time) {
		eng, c, _ := testController(Config{OpportunisticWrites: true, WritePausing: pausing})
		data := make([]byte, 64)
		data[0] = 0xFF
		eng.At(0, func() {
			c.SubmitWrite(0, data, func(at units.Time) { writeAt = at })
		})
		eng.At(units.Time(500*units.Nanosecond), func() {
			c.SubmitRead(8, func(at units.Time, _ []byte) { readAt = at })
		})
		eng.Run()
		return readAt, writeAt
	}
	readNo, writeNo := run(false)
	readYes, writeYes := run(true)
	// Without pausing the read waits for the full write.
	if readNo < writeNo {
		t.Fatalf("without pausing, read (%v) finished before the write (%v)", readNo, writeNo)
	}
	// With pausing the read completes at 500ns + 53ns + 50ns = 603ns.
	if want := units.Time(603 * units.Nanosecond); readYes != want {
		t.Errorf("paused read completed at %v, want %v", readYes, want)
	}
	// And the write is extended by exactly the read service time.
	if want := writeNo + units.Time(50*units.Nanosecond); writeYes != want {
		t.Errorf("resumed write completed at %v, want %v (original %v + TRead)", writeYes, want, writeNo)
	}
	if readYes >= readNo {
		t.Error("pausing did not improve read latency")
	}
}

func TestWritePausingRepeatedReads(t *testing.T) {
	// Several reads pause the same long write one after another; each
	// extends it, and all complete before it.
	eng, c, _ := testController(Config{OpportunisticWrites: true, WritePausing: true})
	data := make([]byte, 64)
	data[0] = 0xFF
	var writeAt units.Time
	reads := 0
	eng.At(0, func() {
		c.SubmitWrite(0, data, func(at units.Time) { writeAt = at })
	})
	for i := 1; i <= 3; i++ {
		eng.At(units.Time(i)*units.Time(300*units.Nanosecond), func() {
			c.SubmitRead(8, func(at units.Time, _ []byte) { reads++ })
		})
	}
	eng.Run()
	if reads != 3 {
		t.Fatalf("%d reads completed, want 3", reads)
	}
	if c.Stats().Pauses != 3 {
		t.Errorf("Pauses = %d, want 3", c.Stats().Pauses)
	}
	// Write extended by 3 reads: 3490 + 3*50 = 3640ns.
	if want := units.Time(units.Nanoseconds(3490 + 150)); writeAt != want {
		t.Errorf("write completed at %v, want %v", writeAt, want)
	}
}

func TestWritePausingSkipsNearlyDoneWrites(t *testing.T) {
	// A read arriving within Treset of the write's end must not pause it.
	eng, c, _ := testController(Config{OpportunisticWrites: true, WritePausing: true})
	data := make([]byte, 64)
	data[0] = 0xFF
	eng.At(0, func() { c.SubmitWrite(0, data, nil) })
	// DCW write ends at 3490ns; read arrives at 3460ns (30ns left < Treset).
	eng.At(units.Time(3460*units.Nanosecond), func() {
		c.SubmitRead(8, func(units.Time, []byte) {})
	})
	eng.Run()
	if c.Stats().Pauses != 0 {
		t.Errorf("Pauses = %d, want 0 (write nearly done)", c.Stats().Pauses)
	}
}

func TestWritePausingDataIntegrity(t *testing.T) {
	// Random traffic with pausing on: reads must still always observe the
	// latest completed-or-forwarded data.
	eng, c, _ := testController(Config{WritePausing: true})
	rng := rand.New(rand.NewSource(3))
	golden := map[pcm.LineAddr][]byte{}
	n := 0
	var step func()
	step = func() {
		if n >= 500 {
			c.WhenIdle(func() {})
			return
		}
		n++
		addr := pcm.LineAddr(rng.Intn(96)) // enough lines to fill the write queue
		if rng.Intn(2) == 0 {
			data := make([]byte, 64)
			rng.Read(data)
			if c.SubmitWrite(addr, data, nil) {
				golden[addr] = data
			}
		} else if want, ok := golden[addr]; ok {
			wantCopy := append([]byte(nil), want...)
			c.SubmitRead(addr, func(_ units.Time, got []byte) {
				for i := range got {
					if got[i] != wantCopy[i] {
						t.Errorf("stale read at %d with pausing", addr)
						return
					}
				}
			})
		}
		eng.After(units.Duration(rng.Intn(800))*units.Nanosecond, step)
	}
	eng.At(0, step)
	eng.Run()
	if c.Stats().Drains == 0 {
		t.Error("the write queue never filled: no drain ran")
	}
}

// TestSubarrayReadOverlapsWrite: with Subarrays > 1, a read to a
// different subarray proceeds while a write holds the bank; with a
// monolithic bank it waits.
func TestSubarrayReadOverlapsWrite(t *testing.T) {
	run := func(subarrays int) (readAt units.Time, overlaps int64) {
		eng, c, _ := testController(Config{OpportunisticWrites: true, Subarrays: subarrays})
		data := make([]byte, 64)
		data[0] = 0xFF
		eng.At(0, func() {
			c.SubmitWrite(0, data, nil) // bank 0, subarray 0
		})
		// Read to bank 0 but a different subarray (addr 8 = bank 0,
		// line index 1 -> subarray 1 when subarrays > 1).
		eng.At(units.Time(100*units.Nanosecond), func() {
			c.SubmitRead(8, func(at units.Time, _ []byte) { readAt = at })
		})
		eng.Run()
		return readAt, c.Stats().SubarrayOverlaps
	}
	mono, ov1 := run(1)
	split, ov4 := run(4)
	if ov1 != 0 {
		t.Errorf("monolithic bank recorded %d overlaps", ov1)
	}
	if ov4 != 1 {
		t.Errorf("4-subarray bank recorded %d overlaps, want 1", ov4)
	}
	// Overlapped read completes at 100ns + TRead = 150ns.
	if want := units.Time(150 * units.Nanosecond); split != want {
		t.Errorf("overlapped read at %v, want %v", split, want)
	}
	if mono <= split {
		t.Errorf("monolithic read (%v) not slower than subarray read (%v)", mono, split)
	}
}

// TestSubarraySameSubarrayStillBlocks: a read to the write's own subarray
// waits even with subarrays enabled.
func TestSubarraySameSubarrayStillBlocks(t *testing.T) {
	eng, c, _ := testController(Config{OpportunisticWrites: true, Subarrays: 4})
	data := make([]byte, 64)
	data[0] = 0xFF
	var readAt, writeAt units.Time
	eng.At(0, func() {
		c.SubmitWrite(0, data, func(at units.Time) { writeAt = at })
	})
	// addr 32 = bank 0, line index 4 -> subarray 0 again.
	eng.At(units.Time(100*units.Nanosecond), func() {
		c.SubmitRead(32, func(at units.Time, _ []byte) { readAt = at })
	})
	eng.Run()
	if readAt < writeAt {
		t.Errorf("same-subarray read (%v) finished before the write (%v)", readAt, writeAt)
	}
}

// TestSubarrayConsistencyUnderRandomTraffic: the full consistency check
// with subarrays, pausing and preset-style churn off.
func TestSubarrayConsistencyUnderRandomTraffic(t *testing.T) {
	eng, c, _ := testController(Config{Subarrays: 4, WritePausing: true})
	rng := rand.New(rand.NewSource(21))
	golden := map[pcm.LineAddr][]byte{}
	n := 0
	var step func()
	step = func() {
		if n >= 600 {
			c.WhenIdle(func() {})
			return
		}
		n++
		addr := pcm.LineAddr(rng.Intn(96)) // enough lines to fill the write queue
		if rng.Intn(2) == 0 {
			data := make([]byte, 64)
			rng.Read(data)
			if c.SubmitWrite(addr, data, nil) {
				golden[addr] = data
			}
		} else if want, ok := golden[addr]; ok {
			wantCopy := append([]byte(nil), want...)
			c.SubmitRead(addr, func(_ units.Time, got []byte) {
				for i := range got {
					if got[i] != wantCopy[i] {
						t.Errorf("stale read at %d under subarrays", addr)
						return
					}
				}
			})
		}
		eng.After(units.Duration(rng.Intn(600))*units.Nanosecond, step)
	}
	eng.At(0, step)
	eng.Run()
	if c.Stats().Drains == 0 {
		t.Error("the write queue never filled: no drain ran")
	}
}

func TestBankUtilization(t *testing.T) {
	eng, c, _ := testController(Config{OpportunisticWrites: true})
	data := make([]byte, 64)
	data[0] = 1
	eng.At(0, func() {
		c.SubmitWrite(0, data, nil) // bank 0 busy for ~3490ns
	})
	eng.RunUntil(units.Time(3490 * units.Nanosecond))
	util := c.BankUtilization()
	if util[0] < 0.99 || util[0] > 1.01 {
		t.Errorf("bank 0 utilization %.3f, want ~1.0", util[0])
	}
	for i := 1; i < len(util); i++ {
		if util[i] != 0 {
			t.Errorf("idle bank %d utilization %.3f", i, util[i])
		}
	}
}

// TestAllFeaturesTogether: pausing + subarrays + full queues + coalescing
// under random traffic, with the golden-model read check — the features
// must compose without consistency or liveness failures.
func TestAllFeaturesTogether(t *testing.T) {
	eng := &sim.Engine{}
	dev := pcm.MustNewDevice(pcm.DefaultParams())
	c := New(eng, dev, tetris.New, Config{WritePausing: true, Subarrays: 4})
	rng := rand.New(rand.NewSource(123))
	golden := map[pcm.LineAddr][]byte{}
	reads, readsDone := 0, 0
	n := 0
	var step func()
	step = func() {
		if n >= 1500 {
			c.WhenIdle(func() {})
			return
		}
		n++
		addr := pcm.LineAddr(rng.Intn(96))
		if rng.Intn(2) == 0 {
			data := make([]byte, 64)
			rng.Read(data)
			if c.SubmitWrite(addr, data, nil) {
				golden[addr] = data
			}
		} else if want, ok := golden[addr]; ok {
			wantCopy := append([]byte(nil), want...)
			reads++
			c.SubmitRead(addr, func(_ units.Time, got []byte) {
				readsDone++
				for i := range got {
					if got[i] != wantCopy[i] {
						t.Errorf("stale read at %d with all features on", addr)
						return
					}
				}
			})
		}
		eng.After(units.Duration(rng.Intn(400))*units.Nanosecond, step)
	}
	eng.At(0, step)
	eng.Run()
	if c.Stats().Drains == 0 {
		t.Error("the write queue never filled: no drain ran")
	}
	if reads != readsDone {
		t.Fatalf("%d of %d reads never completed", reads-readsDone, reads)
	}
	st := c.Stats()
	if st.Pauses == 0 && st.SubarrayOverlaps == 0 {
		t.Error("neither overlap mechanism ever engaged under heavy traffic")
	}
}

func TestReadQueueRejection(t *testing.T) {
	eng, c, _ := testController(Config{})
	accepted, rejected := 0, 0
	eng.At(0, func() {
		// All to bank 0: one starts immediately, the rest queue.
		for i := 0; i < ReadQueue+3; i++ {
			if c.SubmitRead(pcm.LineAddr(i*8), func(units.Time, []byte) {}) {
				accepted++
			} else {
				rejected++
			}
		}
	})
	eng.Run()
	if rejected == 0 {
		t.Error("full read queue never rejected")
	}
	if accepted < ReadQueue+1 { // 1 in flight + a full queue
		t.Errorf("accepted %d, want >= %d", accepted, ReadQueue+1)
	}
	if c.Stats().StallRejects == 0 {
		t.Error("rejections not counted")
	}
}

func TestWhenIdleMultipleWaiters(t *testing.T) {
	eng, c, _ := testController(Config{})
	fired := 0
	eng.At(0, func() {
		c.SubmitWrite(0, make([]byte, 64), nil)
		c.WhenIdle(func() { fired++ })
		c.WhenIdle(func() { fired++ })
	})
	eng.Run()
	if fired != 2 {
		t.Errorf("idle waiters fired %d times, want 2", fired)
	}
}
