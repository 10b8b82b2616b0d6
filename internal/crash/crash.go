// Package crash is the power-failure substrate: a deterministic
// injector that cuts a simulation at an exact pulse, write or cycle
// boundary — freezing the PCM device at exactly the pulses completed so
// far — plus the write-ahead intent log and the recovery pass that
// replays it against the surviving image.
//
// The model splits one write into its physical halves. At issue time
// the controller arms an intent {seq, addr, want} — the durable
// record a real controller would force to its NVM intent log before
// driving the array; the pulse schedule itself is NOT part of the
// record (a controller does not persist pulse trains), which is what
// makes post-crash classification a real decision instead of a replay.
// The injector additionally keeps a private copy of the schedule as
// physics: when the cut fires, every pulse whose interval has fully
// elapsed has landed, every other pulse never happened (an interrupted
// programming pulse leaves the cell in its prior state), and the device
// image is rebuilt accordingly. An intent is retired — and the write
// acknowledged — only once the line's cells and flip tags decode to the
// intended data (the acknowledged-durability contract).
package crash

import (
	"bytes"
	"fmt"

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/units"
)

// Config selects the cut point. Exactly one trigger is typically set;
// when several are, whichever fires first wins. The zero value disables
// injection entirely — a controller with a disabled injector attached
// only counts boundaries and never perturbs the run.
type Config struct {
	// AtPulse cuts power when the Nth pulse record completes (1-based),
	// counting each write's pulses in schedule order, writes in issue
	// order — the "every Kth pulse boundary" axis of the crash sweep.
	AtPulse int64
	// AtWrite cuts power at the completion boundary of the Nth line
	// write (1-based): all its pulses are durable, but the cut lands
	// before the acknowledgement, so its intent stays armed.
	AtWrite int64
}

// Enabled reports whether any trigger is armed.
func (c Config) Enabled() bool { return c.AtPulse > 0 || c.AtWrite > 0 }

// Validate rejects malformed trigger values.
func (c Config) Validate() error {
	if c.AtPulse < 0 || c.AtWrite < 0 {
		return fmt.Errorf("crash: negative trigger (AtPulse=%d AtWrite=%d)", c.AtPulse, c.AtWrite)
	}
	return nil
}

// Intent is one armed entry of the write-ahead intent log: the durable
// fields a controller persists before driving the array. Want is a
// private copy.
type Intent struct {
	Seq         int64 // arm order, globally unique within the run
	Addr        pcm.LineAddr
	Want        []byte // logical contents the write intends
	PulsesDone  int    // pulses that landed before the cut
	PulsesTotal int    // pulses the schedule held
}

// Image is everything that survives the power cut: the device frozen at
// the completed pulses, the encoded-cell shadow that froze with it, the
// per-bank scheme instances (coding state is modeled as durable
// controller metadata — required for per-line ownership schemes), and
// the unretired intent log in arm order. Acked maps every line with at
// least one acknowledged write to the last acknowledged data.
type Image struct {
	Params  pcm.Params
	Dev     *pcm.Device
	Schemes []schemes.Scheme // index = bank = addr mod NumBanks
	Shadow  *schemes.Array
	Intents []Intent
	Acked   map[pcm.LineAddr][]byte

	CutAt           units.Time
	PulsesIssued    int64 // pulse records issued before the cut
	WritesCompleted int64 // line writes whose pulses all landed
}

// CutError is the error the engine stops with when the injector fires;
// callers unwrap it (errors.As) to reach the surviving image.
type CutError struct{ Image *Image }

func (e *CutError) Error() string {
	return fmt.Sprintf("crash: power cut at %v with %d intents in flight (%d pulses issued, %d writes completed)",
		e.Image.CutAt, len(e.Image.Intents), e.Image.PulsesIssued, e.Image.WritesCompleted)
}

// ContractError reports a violation of the acknowledged-durability
// contract: a write reached its completion boundary while its line did
// not decode to the intended data, or its scheme's tags diverged from
// the physical flip cells. It is a scheme or controller bug, never a
// legal simulation outcome.
type ContractError struct {
	Addr   pcm.LineAddr
	Scheme string
	Detail string
}

func (e *ContractError) Error() string {
	return fmt.Sprintf("crash: ack contract violated on line %d under %s: %s", e.Addr, e.Scheme, e.Detail)
}

// flight is the injector's private physics of one in-flight write: the
// absolute pulse schedule needed to decide what landed at the cut.
type flight struct {
	seq  int64
	addr pcm.LineAddr
	want []byte
	base units.Time // absolute start of the write phase
	plan schemes.Plan
}

// Injector observes every write the controller issues, arms and retires
// intents, maintains the encoded-cell shadow, and fires the configured
// cut. It implements memctrl.CrashHook. All methods run on the engine
// goroutine.
type Injector struct {
	cfg Config
	par pcm.Params

	eng     *sim.Engine
	dev     *pcm.Device
	schemes []schemes.Scheme

	shadow   *schemes.Array
	inflight []*flight // arm order; bounded by NumBanks
	byAddr   map[pcm.LineAddr]*flight
	acked    map[pcm.LineAddr][]byte

	seq             int64
	pulsesIssued    int64
	writesCompleted int64
	pulseCutArmed   bool
	cutDone         bool
	image           *Image
}

// New builds an injector for the given trigger config and device
// geometry. Bind must be called before the run starts.
func New(cfg Config, par pcm.Params) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		cfg:    cfg,
		par:    par,
		shadow: schemes.NewArray(par),
		byAddr: make(map[pcm.LineAddr]*flight),
		acked:  make(map[pcm.LineAddr][]byte),
	}, nil
}

// Bind attaches the injector to the engine, the device it freezes, and
// the per-bank scheme instances (index = bank).
func (i *Injector) Bind(eng *sim.Engine, dev *pcm.Device, insts []schemes.Scheme) {
	i.eng = eng
	i.dev = dev
	i.schemes = insts
}

// Image returns the surviving image once the cut has fired, nil before.
func (i *Injector) Image() *Image { return i.image }

// PulsesIssued returns the pulse records issued so far — with a
// disabled config the injector is a pure boundary counter, which is how
// the sweep harness learns a cell's total pulse count from its oracle
// run.
func (i *Injector) PulsesIssued() int64 { return i.pulsesIssued }

// Stats implements the telemetry contract: live crash.* counters
// sampled alongside the controller's.
func (i *Injector) Stats(emit func(name string, value float64)) {
	emit("crash.pulses_issued", float64(i.pulsesIssued))
	emit("crash.intents_armed", float64(i.seq))
	emit("crash.intents_inflight", float64(len(i.inflight)))
	emit("crash.writes_completed", float64(i.writesCompleted))
}

func (i *Injector) schemeOf(addr pcm.LineAddr) schemes.Scheme {
	return i.schemes[int(addr)%len(i.schemes)]
}

// durOf returns the pulse length of kind k under plan p.
func durOf(p schemes.Plan, k schemes.PulseKind) units.Duration {
	if k == schemes.Set {
		return p.TSet
	}
	return p.TReset
}

// WriteStarted arms the intent for a write the controller just issued
// and records its absolute pulse schedule. want and the plan's pulse
// buffer are owned by the controller and copied here — the controller
// recycles the plan immediately after this call returns; old is read
// only during the call.
func (i *Injector) WriteStarted(addr pcm.LineAddr, old, want []byte, plan schemes.Plan, now units.Time) {
	if i.cutDone {
		return
	}
	// The shadow mirrors the device's real old image before replaying
	// the schedule: under sparing or preloaded contents the stored bits
	// can differ from the pulse-train history.
	i.shadow.SyncLogical(addr, old)
	if i.byAddr[addr] != nil {
		panic(fmt.Sprintf("crash: two in-flight writes to line %d", addr))
	}
	f := &flight{
		seq:  i.seq,
		addr: addr,
		want: append([]byte(nil), want...),
		base: now.Add(plan.Read + plan.Analysis),
		plan: plan,
	}
	f.plan.Pulses = append([]schemes.Pulse(nil), plan.Pulses...)
	f.plan.SortPulses()
	i.seq++
	i.inflight = append(i.inflight, f)
	i.byAddr[addr] = f
	if len(i.inflight) > i.par.NumBanks {
		// One in-flight write per bank is the structural bound of the
		// intent log; exceeding it is a controller bug.
		panic(fmt.Sprintf("crash: intent log overflow: %d armed intents, %d banks",
			len(i.inflight), i.par.NumBanks))
	}

	n := int64(len(f.plan.Pulses))
	if i.cfg.AtPulse > 0 && !i.pulseCutArmed && i.pulsesIssued+n >= i.cfg.AtPulse {
		// This write carries the threshold-crossing pulse: the cut lands
		// the instant that pulse completes.
		p := f.plan.Pulses[i.cfg.AtPulse-i.pulsesIssued-1]
		i.pulseCutArmed = true
		i.eng.At(f.base.Add(p.Start+durOf(f.plan, p.Kind)), i.cutNow)
	}
	i.pulsesIssued += n
}

// WriteCompleted is called at a write's completion boundary, before the
// controller acknowledges it. It replays the full schedule into the
// shadow, enforces the acknowledged-durability contract, retires the
// intent, and returns whether the acknowledgement may fire — false
// means power was lost at this exact boundary (the write is durable,
// its intent stays armed, and the acknowledgement never happens).
func (i *Injector) WriteCompleted(addr pcm.LineAddr) bool {
	if i.cutDone {
		return false
	}
	f := i.byAddr[addr]
	if f == nil {
		return true // not a tracked write (no intent armed for it)
	}
	i.shadow.Apply(addr, f.plan)
	i.writesCompleted++

	// Acknowledged-durability contract: the line must decode to the
	// intended data and the scheme's coding state must match the
	// physical flip cells before the ack may fire.
	sch := i.schemeOf(addr)
	if dec := i.shadow.Logical(addr); !bytes.Equal(dec, f.want) {
		i.eng.Stop(&ContractError{Addr: addr, Scheme: sch.Name(),
			Detail: "completed write does not decode to the intended data"})
		return false
	}
	if r, ok := sch.(schemes.FlipTagger); ok {
		if mem, phys := r.FlipTags(addr), i.shadow.FlipTags(addr); mem != phys {
			i.eng.Stop(&ContractError{Addr: addr, Scheme: sch.Name(),
				Detail: fmt.Sprintf("scheme tags %#x diverge from physical flip cells %#x", mem, phys)})
			return false
		}
	}

	if i.cfg.AtWrite > 0 && i.writesCompleted == i.cfg.AtWrite {
		// Durable but unacknowledged: the intent stays armed, recovery
		// will find the line clean.
		i.cutNow()
		return false
	}

	i.retire(f)
	buf := i.acked[addr]
	if buf == nil {
		buf = make([]byte, len(f.want))
		i.acked[addr] = buf
	}
	copy(buf, f.want)
	return true
}

// retire removes a flight from the intent log.
func (i *Injector) retire(f *flight) {
	delete(i.byAddr, f.addr)
	for k, g := range i.inflight {
		if g == f {
			i.inflight = append(i.inflight[:k], i.inflight[k+1:]...)
			return
		}
	}
}

// cutNow is the power cut: every in-flight write keeps exactly the
// pulses whose interval has fully elapsed, the device is frozen at the
// resulting torn images, and the engine stops with the surviving Image.
func (i *Injector) cutNow() {
	if i.cutDone {
		return
	}
	i.cutDone = true
	now := i.eng.Now()

	intents := make([]Intent, 0, len(i.inflight))
	for _, f := range i.inflight {
		sub := f.plan
		sub.Pulses = nil
		for _, p := range f.plan.Pulses {
			if f.base.Add(p.Start+durOf(f.plan, p.Kind)) <= now {
				sub.Pulses = append(sub.Pulses, p)
			}
		}
		sub.Sets, sub.Resets = sub.Counts()
		i.shadow.Apply(f.addr, sub)
		i.dev.Preload(f.addr, i.shadow.Logical(f.addr))
		intents = append(intents, Intent{
			Seq:         f.seq,
			Addr:        f.addr,
			Want:        f.want,
			PulsesDone:  len(sub.Pulses),
			PulsesTotal: len(f.plan.Pulses),
		})
	}
	i.image = &Image{
		Params:          i.par,
		Dev:             i.dev,
		Schemes:         i.schemes,
		Shadow:          i.shadow,
		Intents:         intents,
		Acked:           i.acked,
		CutAt:           now,
		PulsesIssued:    i.pulsesIssued,
		WritesCompleted: i.writesCompleted,
	}
	i.eng.Stop(&CutError{Image: i.image})
}
