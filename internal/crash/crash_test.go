package crash_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"tetriswrite/internal/crash"
	"tetriswrite/internal/memctrl"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/units"
)

type op struct {
	addr pcm.LineAddr
	data []byte
}

// testOps is a deterministic write stream touching several banks, with
// repeated writes to the same lines so intents retire and re-arm.
func testOps(par pcm.Params, n int) []op {
	st := uint64(0x9E3779B9)
	next := func() uint64 {
		st += 0x9e3779b97f4a7c15
		z := st
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	ops := make([]op, n)
	for i := range ops {
		data := make([]byte, par.LineBytes)
		for j := range data {
			data[j] = byte(next())
		}
		ops[i] = op{addr: pcm.LineAddr(next() % 23), data: data}
	}
	return ops
}

// runStream drives ops through a controller with the given injector
// config attached and returns the injector plus the per-op ack flags.
// The returned engine has already run to completion or to the cut.
func runStream(t *testing.T, factory schemes.Factory, cfg crash.Config, ops []op) (*sim.Engine, *pcm.Device, *crash.Injector, []bool) {
	t.Helper()
	eng := sim.NewEngine(sim.QueueWheel)
	par := pcm.DefaultParams()
	dev := pcm.MustNewDevice(par)
	ctrl := memctrl.New(eng, dev, factory, memctrl.Config{OpportunisticWrites: true, DisableCoalescing: true})
	inj, err := crash.New(cfg, par)
	if err != nil {
		t.Fatal(err)
	}
	inj.Bind(eng, dev, ctrl.Schemes())
	ctrl.SetCrash(inj)
	acked := make([]bool, len(ops))
	next := 0
	var fill func()
	fill = func() {
		for next < len(ops) {
			k := next
			if !ctrl.SubmitWrite(ops[k].addr, ops[k].data, func(units.Time) { acked[k] = true }) {
				ctrl.WhenWriteSpace(fill)
				return
			}
			next++
		}
		ctrl.WhenIdle(func() {})
	}
	eng.At(0, fill)
	eng.Run()
	return eng, dev, inj, acked
}

// TestDisabledInjectorIsPureObserver: a zero-config injector counts
// boundaries without perturbing the run — the device image is
// bit-identical to a run with no injector at all.
func TestDisabledInjectorIsPureObserver(t *testing.T) {
	par := pcm.DefaultParams()
	ops := testOps(par, 60)

	bare := func() *pcm.Device {
		eng := sim.NewEngine(sim.QueueWheel)
		dev := pcm.MustNewDevice(par)
		ctrl := memctrl.New(eng, dev, tetris.New, memctrl.Config{OpportunisticWrites: true, DisableCoalescing: true})
		done := 0
		next := 0
		var fill func()
		fill = func() {
			for next < len(ops) {
				k := next
				if !ctrl.SubmitWrite(ops[k].addr, ops[k].data, func(units.Time) { done++ }) {
					ctrl.WhenWriteSpace(fill)
					return
				}
				next++
			}
			ctrl.WhenIdle(func() {})
		}
		eng.At(0, fill)
		eng.Run()
		if done != len(ops) {
			t.Fatalf("bare run acknowledged %d of %d writes", done, len(ops))
		}
		return dev
	}()

	_, dev, inj, acked := runStream(t, tetris.New, crash.Config{}, ops)
	for k := range acked {
		if !acked[k] {
			t.Fatalf("observed run never acknowledged write %d", k)
		}
	}
	if inj.PulsesIssued() == 0 {
		t.Fatal("observer counted no pulses")
	}
	if inj.Image() != nil {
		t.Fatal("disabled injector produced a cut image")
	}
	a := make([]byte, par.LineBytes)
	b := make([]byte, par.LineBytes)
	for _, o := range ops {
		bare.PeekLine(o.addr, a)
		dev.PeekLine(o.addr, b)
		if !bytes.Equal(a, b) {
			t.Fatalf("line %d diverges between bare and observed runs", o.addr)
		}
	}
}

// TestAtPulseCutIsDeterministic: two runs with the same trigger freeze
// at the same instant with identical intent logs and device images.
func TestAtPulseCutIsDeterministic(t *testing.T) {
	par := pcm.DefaultParams()
	ops := testOps(par, 60)
	cfg := crash.Config{AtPulse: 300}

	eng1, dev1, inj1, _ := runStream(t, tetris.New, cfg, ops)
	eng2, dev2, inj2, _ := runStream(t, tetris.New, cfg, ops)

	var ce1, ce2 *crash.CutError
	if !errors.As(eng1.StopReason(), &ce1) || !errors.As(eng2.StopReason(), &ce2) {
		t.Fatalf("runs did not stop with cuts: %v / %v", eng1.StopReason(), eng2.StopReason())
	}
	if ce1.Image.CutAt != ce2.Image.CutAt || ce1.Image.PulsesIssued != ce2.Image.PulsesIssued {
		t.Fatalf("cut context differs: %v/%d vs %v/%d",
			ce1.Image.CutAt, ce1.Image.PulsesIssued, ce2.Image.CutAt, ce2.Image.PulsesIssued)
	}
	if !reflect.DeepEqual(inj1.Image().Intents, inj2.Image().Intents) {
		t.Fatal("intent logs differ between identical runs")
	}
	a := make([]byte, par.LineBytes)
	b := make([]byte, par.LineBytes)
	for _, o := range ops {
		dev1.PeekLine(o.addr, a)
		dev2.PeekLine(o.addr, b)
		if !bytes.Equal(a, b) {
			t.Fatalf("torn image of line %d differs between identical runs", o.addr)
		}
	}
}

// TestRecoverBringsIntentLinesToWant: after any AtPulse cut, the
// recovery pass leaves every armed intent's line decoding to its Want
// bytes on the device.
func TestRecoverBringsIntentLinesToWant(t *testing.T) {
	par := pcm.DefaultParams()
	ops := testOps(par, 60)
	for _, factory := range []schemes.Factory{schemes.NewDCW, schemes.NewFlipNWrite, tetris.New} {
		for _, at := range []int64{64, 300, 700} {
			eng, dev, _, _ := runStream(t, factory, crash.Config{AtPulse: at}, ops)
			var ce *crash.CutError
			if !errors.As(eng.StopReason(), &ce) {
				t.Fatalf("AtPulse=%d: no cut (stop: %v)", at, eng.StopReason())
			}
			rep, err := crash.Recover(ce.Image)
			if err != nil {
				t.Fatalf("AtPulse=%d: %v", at, err)
			}
			if rep.Intents != len(ce.Image.Intents) {
				t.Fatalf("report covers %d intents, image has %d", rep.Intents, len(ce.Image.Intents))
			}
			buf := make([]byte, par.LineBytes)
			for _, in := range ce.Image.Intents {
				dev.PeekLine(in.Addr, buf)
				if !bytes.Equal(buf, in.Want) {
					t.Fatalf("AtPulse=%d: intent line %d not recovered to Want", at, in.Addr)
				}
			}
		}
	}
}

// TestAtWriteCutIsDurableButUnacked: a cut at a write's completion
// boundary keeps its intent armed and unacknowledged, and recovery
// finds that line already clean.
func TestAtWriteCutIsDurableButUnacked(t *testing.T) {
	par := pcm.DefaultParams()
	ops := testOps(par, 40)
	eng, _, _, acked := runStream(t, tetris.New, crash.Config{AtWrite: 5}, ops)
	var ce *crash.CutError
	if !errors.As(eng.StopReason(), &ce) {
		t.Fatalf("no cut: %v", eng.StopReason())
	}
	img := ce.Image
	if img.WritesCompleted != 5 {
		t.Fatalf("cut after %d completed writes, want 5", img.WritesCompleted)
	}
	n := 0
	for _, ok := range acked {
		if ok {
			n++
		}
	}
	// The threshold write is durable but never acknowledged: strictly
	// fewer acks than completed writes.
	if n >= int(img.WritesCompleted) {
		t.Fatalf("%d acks for %d completed writes; the cut write must stay unacked", n, img.WritesCompleted)
	}
	rep, err := crash.Recover(img)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean == 0 {
		t.Fatal("the durable-but-unacked write was not classified clean")
	}
}

// TestConfigValidate rejects negative triggers and reports enablement.
func TestConfigValidate(t *testing.T) {
	if err := (crash.Config{AtPulse: -1}).Validate(); err == nil {
		t.Error("negative AtPulse accepted")
	}
	if (crash.Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	if !(crash.Config{AtWrite: 1}).Enabled() {
		t.Error("AtWrite trigger reports disabled")
	}
}

// TestCutStopsAcks: no acknowledgement fires at or after the cut
// instant — every acked op's line was already durable when power died.
func TestCutStopsAcks(t *testing.T) {
	par := pcm.DefaultParams()
	ops := testOps(par, 60)
	_, _, counter, _ := runStream(t, schemes.NewDCW, crash.Config{}, ops)
	eng, dev, _, acked := runStream(t, schemes.NewDCW, crash.Config{AtPulse: counter.PulsesIssued() / 2}, ops)
	var ce *crash.CutError
	if !errors.As(eng.StopReason(), &ce) {
		t.Fatalf("no cut: %v", eng.StopReason())
	}
	inflight := map[pcm.LineAddr]bool{}
	for _, in := range ce.Image.Intents {
		inflight[in.Addr] = true
	}
	buf := make([]byte, par.LineBytes)
	for addr, want := range ce.Image.Acked {
		if inflight[addr] {
			continue
		}
		dev.PeekLine(addr, buf)
		if !bytes.Equal(buf, want) {
			t.Fatalf("acked line %d does not hold its acknowledged data at the cut", addr)
		}
	}
	// Sanity: the run was actually cut mid-stream.
	n := 0
	for _, ok := range acked {
		if ok {
			n++
		}
	}
	if n == 0 || n == len(ops) {
		t.Fatalf("cut acknowledged %d of %d ops; want a mid-stream cut", n, len(ops))
	}
}
