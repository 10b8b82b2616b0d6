package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tetriswrite/internal/units"
)

// popRecord captures one executed event for order comparison.
type popRecord struct {
	at units.Time
	id int
}

// runSchedule drives a scheduler through a randomized schedule derived
// deterministically from seed and returns the execution order. Events
// reschedule follow-ups from inside callbacks (like real components do),
// exercising push-during-pop at the current tick, near future, and far
// future.
func runSchedule(t *testing.T, s scheduler, seed int64, initial, chained int) []popRecord {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var order []popRecord
	nextID := 0
	var schedule func(at units.Time, depth int)
	schedule = func(at units.Time, depth int) {
		id := nextID
		nextID++
		s.At(at, func() {
			order = append(order, popRecord{at: s.Now(), id: id})
			if depth >= chained {
				return
			}
			// Mix of zero-delay, same-cycle-ish, short, medium, and
			// far-future follow-ups.
			var d units.Duration
			switch rng.Intn(10) {
			case 0:
				d = 0 // zero delay: runs this same tick, after pending same-tick events
			case 1, 2, 3:
				d = units.Duration(rng.Intn(4)) * 500 // same/near cycle
			case 4, 5, 6:
				d = units.Duration(rng.Int63n(100_000)) // short
			case 7, 8:
				d = units.Duration(rng.Int63n(1 << 30)) // medium
			default:
				d = units.Duration(1<<41 + rng.Int63n(1<<41)) // far future
			}
			schedule(s.Now().Add(d), depth+1)
		})
	}
	for i := 0; i < initial; i++ {
		// Bursts of identical timestamps stress the seq tiebreak.
		base := units.Time(rng.Int63n(1 << 20))
		n := 1 + rng.Intn(3)
		for j := 0; j < n; j++ {
			schedule(base, 0)
		}
	}
	s.Run()
	if got := s.Pending(); got != 0 {
		t.Fatalf("%T finished with %d pending events", s, got)
	}
	return order
}

// TestWheelMatchesHeapPopOrder is the determinism contract: the engine
// must execute random schedules (zero-delay events, same-cycle bursts,
// far-future events) in exactly the order of the sorted-slice reference.
// The name dates from when two engine queues were compared.
func TestWheelMatchesHeapPopOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		want := runSchedule(t, &refEngine{}, seed, 50, 40)
		got := runSchedule(t, NewEngine(QueueWheel), seed, 50, 40)
		if len(want) != len(got) {
			t.Fatalf("seed %d: reference ran %d events, engine ran %d", seed, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("seed %d: pop %d differs: reference %+v, engine %+v", seed, i, want[i], got[i])
			}
		}
	}
}

// TestWheelZeroDelayOrdering pins the subtle same-tick rule: an event
// scheduled with zero delay from inside a callback runs on the same tick
// but after every event already queued for that tick.
func TestWheelZeroDelayOrdering(t *testing.T) {
	for _, s := range []scheduler{&refEngine{}, NewEngine(QueueHeap)} {
		var order []int
		s.At(100, func() {
			order = append(order, 1)
			s.After(0, func() { order = append(order, 3) })
		})
		s.At(100, func() { order = append(order, 2) })
		s.Run()
		if want := []int{1, 2, 3}; !reflect.DeepEqual(order, want) {
			t.Fatalf("%T: got order %v, want %v", s, order, want)
		}
	}
}

// TestWheelOverflowInterleave interleaves far-future and near events: a
// far-future event must not run before nearer events pushed after it,
// and events scheduled after it runs must follow it.
func TestWheelOverflowInterleave(t *testing.T) {
	for _, s := range []scheduler{&refEngine{}, NewEngine(QueueWheel)} {
		far := units.Time(1 << 45)
		var order []string
		s.At(far, func() {
			order = append(order, "far")
			s.After(500, func() { order = append(order, "after-far") })
		})
		s.At(1000, func() {
			order = append(order, "near")
			s.At(far-1, func() { order = append(order, "far-1") })
		})
		s.Run()
		if want := []string{"near", "far-1", "far", "after-far"}; !reflect.DeepEqual(order, want) {
			t.Fatalf("%T: got %v, want %v", s, order, want)
		}
	}
}

// TestWheelRunUntilParity checks that partial runs (RunUntil stops on
// the head's time, not on a pop) agree with the reference.
func TestWheelRunUntilParity(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		var runs [2][]string
		for k, s := range []scheduler{&refEngine{}, NewEngine(QueueWheel)} {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				s.At(units.Time(rng.Int63n(1<<22)), func() {})
			}
			for _, cut := range []units.Time{1 << 18, 1 << 20, 1 << 21, 1 << 22} {
				s.RunUntil(cut)
				runs[k] = append(runs[k], fmt.Sprintf("processed=%d now=%v pending=%d", s.Processed(), s.Now(), s.Pending()))
			}
		}
		if !reflect.DeepEqual(runs[0], runs[1]) {
			t.Fatalf("seed %d: reference %v, engine %v", seed, runs[0], runs[1])
		}
	}
}

func TestQueueKindValid(t *testing.T) {
	for _, k := range []QueueKind{"", QueueWheel, QueueHeap} {
		if !k.Valid() {
			t.Errorf("kind %q should be valid", k)
		}
		if e := NewEngine(k); e.Pending() != 0 || e.Now() != 0 {
			t.Errorf("NewEngine(%q) is not empty", k)
		}
	}
	if QueueKind("bogus").Valid() {
		t.Error("bogus kind should be invalid")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewEngine with unknown kind should panic")
		}
	}()
	NewEngine("bogus")
}

// Event turnover must not allocate in steady state: the heap's backing
// array is reused by subsequent At calls.
func TestEventFreelistZeroAllocs(t *testing.T) {
	e := &Engine{}
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < 8 {
			e.After(units.Duration(units.Nanosecond), tick)
		}
	}
	e.At(0, tick)
	e.Run() // warm: the heap now has capacity for one event

	allocs := testing.AllocsPerRun(100, func() {
		e.After(units.Duration(units.Nanosecond), tick)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("event schedule+step allocates %v objects/op, want 0", allocs)
	}
}

// A stress mix of cascaded and cross-scheduled same-time events runs in
// the reference's order. The name dates from the pointer-event freelist
// this used to guard.
func TestEventFreelistPreservesDeterminism(t *testing.T) {
	run := func(s scheduler) []int {
		var order []int
		for i := 0; i < 50; i++ {
			i := i
			s.At(units.Time((i%7)*10), func() {
				order = append(order, i)
				if i%3 == 0 {
					s.After(units.Duration(5), func() { order = append(order, 1000+i) })
				}
			})
		}
		s.Run()
		return order
	}
	if want, got := run(&refEngine{}), run(&Engine{}); !reflect.DeepEqual(want, got) {
		t.Fatalf("engine order %v, reference %v", got, want)
	}
}

// fuzzScript is a byte stream read as a program; past its end it reads
// zeros, which schedule nothing further.
type fuzzScript struct {
	data []byte
	pos  int
}

func (p *fuzzScript) next() byte {
	if p.pos >= len(p.data) {
		return 0
	}
	b := p.data[p.pos]
	p.pos++
	return b
}

// delay draws a delay class: zero, same cycle, near, medium or a
// far-future outlier.
func (p *fuzzScript) delay() units.Duration {
	b := p.next()
	switch b % 5 {
	case 0:
		return 0
	case 1:
		return units.Duration(b/5%4) * 500
	case 2:
		return units.Duration(p.next()) * 37
	case 3:
		return units.Duration(p.next())<<16 | units.Duration(p.next())
	default:
		return 1<<41 + units.Duration(p.next())<<30
	}
}

// driveScript runs one fuzz program on s and returns everything
// observable: each executed event with its time and the engine state after every run command.
func driveScript(s scheduler, data []byte) []string {
	p := &fuzzScript{data: data}
	var log []string
	id := 0
	var spawn func(at units.Time, depth int)
	spawn = func(at units.Time, depth int) {
		me := id
		id++
		s.At(at, func() {
			log = append(log, fmt.Sprintf("ev %d @%v", me, s.Now()))
			if depth >= 3 {
				return
			}
			for k := int(p.next() % 3); k > 0; k-- {
				spawn(s.Now().Add(p.delay()), depth+1)
			}
		})
	}
	for n := int(p.next()%32) + 1; n > 0; n-- {
		at := s.Now().Add(p.delay())
		// Same-tick bursts: up to three events at one time.
		for k := int(p.next()%3) + 1; k > 0; k-- {
			spawn(at, 0)
		}
	}
	for cmd := 0; cmd < 16 && s.Pending() > 0; cmd++ {
		res := "-"
		switch c := p.next(); c % 5 {
		case 0:
			s.RunUntil(s.Now().Add(p.delay()))
		case 1:
			res = s.runBudget(uint64(p.next()%8), 0)
		case 2:
			res = s.runBudget(0, p.delay())
		case 3:
			s.Step()
		default:
			res = s.runBudget(uint64(p.next()%8), p.delay())
		}
		log = append(log, fmt.Sprintf("cmd %d: %s now=%v processed=%d pending=%d", cmd, res, s.Now(), s.Processed(), s.Pending()))
	}
	s.Run()
	log = append(log, fmt.Sprintf("end now=%v processed=%d pending=%d", s.Now(), s.Processed(), s.Pending()))
	return log
}

// FuzzEnginePopOrder runs arbitrary schedules on the engine and on the
// sorted-slice reference: zero delays, same-tick bursts, far-future
// outliers and scheduling from inside callbacks, cut by RunUntil, Step
// and watchdog budgets. Every executed event and intermediate engine
// state must agree.
func FuzzEnginePopOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 2, 1, 1, 2, 4, 7, 0, 3, 9, 1, 6, 2, 11, 4, 5})
	f.Add([]byte{31, 4, 2, 9, 0, 0, 1, 1, 1, 6, 200, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{7, 1, 2, 6, 2, 0, 2, 4, 2, 2, 4, 3, 9, 2, 2, 4, 0, 4, 1, 3, 11, 3, 255, 255})
	f.Add([]byte("10001")) // catches a sift-down that skips the last right child
	f.Fuzz(func(t *testing.T, data []byte) {
		want := driveScript(&refEngine{}, data)
		got := driveScript(&Engine{}, data)
		if !reflect.DeepEqual(want, got) {
			for i := range want {
				if i >= len(got) || want[i] != got[i] {
					t.Fatalf("diverged at line %d:\nreference: %v\nengine:    %v", i, want[i:], got[min(i, len(got)):])
				}
			}
			t.Fatalf("engine logged extra lines: %v", got[len(want):])
		}
	})
}
