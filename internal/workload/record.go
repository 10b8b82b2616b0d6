package workload

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"

	"tetriswrite/internal/pcm"
)

// Recording is every core's drawn stream of one program, up to an
// instruction budget: the draw half of each Generator.Next call,
// without the payloads. A core's draws depend only on the program's
// profile, seed, core count and line size, so one recording serves
// every run of that program under any scheme; each run applies it to
// its own Program through a Replay. A Recording is read-only once
// made, and concurrent runs may share it.
type Recording struct {
	prof      Profile
	cores     int
	seed      int64
	lineBytes int
	budget    int64
	streams   []stream
}

// stream is one core's recorded draws. Each op is a uvarint of its
// think gap shifted left two bits under its kind, then a uvarint of its
// address; a write's op is followed by a bitmap of ceil(units/8) bytes
// whose bit u marks unit u as changed. masks holds the changed units'
// masks, write after write. At paper scale an op takes 5 bytes and a
// write's masks about 40, so the masks are most of a recording.
type stream struct {
	ops   []byte
	n     int // ops recorded
	masks []uint64
}

// Record draws the stream of every core of the program NewProgram(prof,
// cores, seed, par) builds, each until its think total reaches budget
// (see budgeted). It refuses a think gap of 2⁶² or more, which the
// recording's layout cannot hold beside the op's kind.
//
// Each core's stream is drawn twice: first on a copy of its generator,
// to size the buffers, then into buffers of exactly that size. Drawing
// once into growing buffers was cheaper, but the garbage it left raised
// paper_grid's peak RSS more than the recording itself did.
//
// The draw polls ctx every drawPoll draws and, once ctx is done, stops
// and returns no recording and an error wrapping ctx.Err().
func Record(ctx context.Context, prof Profile, cores int, seed int64, par pcm.Params, budget int64) (*Recording, error) {
	prog := NewProgram(prof, cores, seed, par)
	r := &Recording{prof: prog.prof, cores: cores, seed: seed, lineBytes: par.LineBytes, budget: budget,
		streams: make([]stream, cores)}
	bitmapBytes := (prog.units() + 7) / 8
	for c := range r.streams {
		g := prog.Generator(c)
		// sizer draws g's stream without advancing g. It shares g's mask
		// buffer, which is harmless: the two passes run one after the
		// other.
		sizer := *g
		var s stream
		nops, nmasks := 0, 0
		var tooLarge int64
		err := drawStream(ctx, &sizer, budget, func(d drawn, masks []uint64) {
			if d.think >= 1<<62 {
				// The shift under the kind would overflow it.
				tooLarge = max(tooLarge, d.think)
			}
			s.n++
			nops += uvarintLen(uint64(d.think)<<2|uint64(d.kind)) + uvarintLen(uint64(d.addr))
			if d.kind != opRead {
				nops += bitmapBytes
				for _, m := range masks {
					if m != 0 {
						nmasks++
					}
				}
			}
		})
		if err == nil && tooLarge != 0 {
			err = fmt.Errorf("think gap %d is too large to record", tooLarge)
		}
		if err != nil {
			return nil, fmt.Errorf("workload: %s core %d: %w", prof.Name, c, err)
		}
		s.ops, s.masks = make([]byte, 0, nops), make([]uint64, 0, nmasks)
		// The same draws as the sizing pass: only ctx can stop them now.
		err = drawStream(ctx, g, budget, func(d drawn, masks []uint64) {
			s.ops = binary.AppendUvarint(s.ops, uint64(d.think)<<2|uint64(d.kind))
			s.ops = binary.AppendUvarint(s.ops, uint64(d.addr))
			if d.kind == opRead {
				return
			}
			bitmap := len(s.ops)
			s.ops = s.ops[:bitmap+bitmapBytes]
			for u, m := range masks {
				// A unit left untouched, or drawn with no bits, takes
				// no mask.
				if m != 0 {
					s.ops[bitmap+u/8] |= 1 << (u % 8)
					s.masks = append(s.masks, m)
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("workload: %s core %d: %w", prof.Name, c, err)
		}
		r.streams[c] = s
	}
	return r, nil
}

// drawPoll is how many draws Record makes between two polls of its
// context: a few hundred microseconds of drawing at most.
const drawPoll = 1024

// drawStream draws g's ops until their think total reaches budget,
// passing each to emit, and fails when ctx is done.
func drawStream(ctx context.Context, g *Generator, budget int64, emit func(d drawn, masks []uint64)) error {
	for s := (budgeted{g: g, left: budget}); !s.done; {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.fill(drawPoll, emit)
	}
	return nil
}

// budgeted is a core's generator drawing against its instruction
// budget. It stops where a cpu.Core does: the op whose think gap
// reaches the remaining budget is the last one the core fetches, so it
// is the last one drawn. Record and Pipeline both draw through fill,
// so the rule has one definition.
type budgeted struct {
	g    *Generator
	left int64 // instructions the core has yet to retire
	done bool  // the last op is drawn
}

// fill draws up to n more ops, passing each to emit with a write's
// per-unit masks, and stops early after the last op.
func (s *budgeted) fill(n int, emit func(d drawn, masks []uint64)) {
	for ; n > 0 && !s.done; n-- {
		d := s.g.draw()
		if d.think >= s.left {
			s.done = true
		} else {
			s.left -= d.think
		}
		emit(d, s.g.masks)
	}
}

// uvarintLen is the length of binary.AppendUvarint's encoding of x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Profile returns the (normalized) profile the recording was drawn
// from.
func (r *Recording) Profile() Profile { return r.prof }

// Check reports whether a run of cores cores, the given seed and line
// size and a per-core budget of budget instructions would replay this
// recording exactly. A smaller budget replays a prefix of each stream.
func (r *Recording) Check(cores int, seed int64, lineBytes int, budget int64) error {
	switch {
	case cores != r.cores:
		return fmt.Errorf("workload: recording of %s has %d cores, the run %d", r.prof.Name, r.cores, cores)
	case seed != r.seed:
		return fmt.Errorf("workload: recording of %s has seed %d, the run %d", r.prof.Name, r.seed, seed)
	case lineBytes != r.lineBytes:
		return fmt.Errorf("workload: recording of %s has %d-byte lines, the run %d", r.prof.Name, r.lineBytes, lineBytes)
	case budget > r.budget:
		return fmt.Errorf("workload: recording of %s covers %d instructions per core, the run needs %d", r.prof.Name, r.budget, budget)
	}
	return nil
}

// Replay is one core's recorded stream applied to a Program: the apply
// half of Generator.Next. It is an operation source with the same ops,
// payloads included, as the core's Generator of that Program would
// produce, provided the cores' calls interleave the same way.
type Replay struct {
	s       *stream
	prog    *Program
	core    int
	op      int      // ops replayed
	pos     int      // next byte of s.ops
	mask    int      // next word of s.masks
	masks   []uint64 // the current write's per-unit masks
	payload []byte
}

// Replay returns core's stream of the recording applied to p, which must
// be a Program of the recording's profile, core count, seed and line
// size (see Check). Each Replay owns its payload buffer: a write's Data
// is valid until its next Next call.
func (r *Recording) Replay(p *Program, core int) *Replay {
	if p.prof != r.prof || p.cores != r.cores || p.seed != r.seed || p.par.LineBytes != r.lineBytes {
		panic(fmt.Sprintf("workload: replaying a recording of %s (%d cores, seed %d, %d-byte lines) on a program of %s (%d cores, seed %d, %d-byte lines)",
			r.prof.Name, r.cores, r.seed, r.lineBytes, p.prof.Name, p.cores, p.seed, p.par.LineBytes))
	}
	return &Replay{s: &r.streams[core], prog: p, core: core,
		masks: make([]uint64, p.units()), payload: make([]byte, r.lineBytes)}
}

// Next applies the core's next recorded op. Running past the last
// recorded op is a bug in the caller (a budget larger than the
// recording's), and panics naming the core and op.
func (rp *Replay) Next() Op {
	s := rp.s
	if rp.op >= s.n {
		panic(fmt.Sprintf("workload: core %d replay ran past its end: op %d of a %d-op recording", rp.core, rp.op, s.n))
	}
	rp.op++
	tk, n := binary.Uvarint(s.ops[rp.pos:])
	rp.pos += n
	addr, n := binary.Uvarint(s.ops[rp.pos:])
	rp.pos += n
	d := drawn{think: int64(tk >> 2), addr: pcm.LineAddr(addr), kind: uint8(tk & 3)}
	if d.kind != opRead {
		// Expand the write's changed-unit bitmap and masks.
		clear(rp.masks)
		bitmap := s.ops[rp.pos : rp.pos+(len(rp.masks)+7)/8]
		rp.pos += len(bitmap)
		for i, b := range bitmap {
			for ; b != 0; b &= b - 1 {
				rp.masks[i*8+bits.TrailingZeros8(b)] = s.masks[rp.mask]
				rp.mask++
			}
		}
	}
	return rp.prog.apply(d, rp.masks, rp.payload)
}
