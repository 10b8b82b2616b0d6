package tetris_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/registry"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/plan_stream_golden.json")

const planStreamGolden = "testdata/plan_stream_golden.json"

// planStreamWrites is the length of the captured vips write stream each
// configuration replays.
const planStreamWrites = 2048

// linePair is one captured write: the line's contents before and after.
type linePair struct {
	addr     pcm.LineAddr
	old, new []byte
}

// captureVips returns the first n writes of vips core 0 (seed 1) drawn
// with par's line size, each paired with the line's prior contents: the
// program's initial image on first touch, the previous write after.
func captureVips(t *testing.T, n int, par pcm.Params) []linePair {
	prof, err := workload.ProfileByName("vips")
	if err != nil {
		t.Fatal(err)
	}
	prog := workload.NewProgram(prof, 1, 1, par)
	g := prog.Generator(0)
	lines := map[pcm.LineAddr][]byte{}
	out := make([]linePair, 0, n)
	for len(out) < n {
		op := g.Next()
		if !op.Write {
			continue
		}
		old, ok := lines[op.Addr]
		if !ok {
			old = prog.InitialContents(op.Addr)
		}
		next := append([]byte(nil), op.Data...)
		out = append(out, linePair{addr: op.Addr, old: old, new: next})
		lines[op.Addr] = next
	}
	return out
}

// planStreamConfig is one scheme the plan-stream golden replays, on a
// stream drawn with par.
type planStreamConfig struct {
	name string
	par  pcm.Params
	new  func() schemes.Scheme
}

// planStreamConfigs returns every registry scheme, bare and composed
// with each decorator, followed by the Tetris pulse-order
// configurations (GCP off, small budgets, every Options variant, x8
// chips, a Tset that K does not divide), all on the default geometry's
// stream, and then the static schemes on the geometries of
// staticGeometries, each on a stream drawn with its own Params.
func planStreamConfigs(t *testing.T) []planStreamConfig {
	reg := registry.Default()
	var names []string
	for _, b := range reg.Bases() {
		names = append(names, b)
		for _, d := range reg.Decorators() {
			names = append(names, b+"+"+d)
		}
	}
	var out []planStreamConfig
	par := pcm.DefaultParams()
	for _, name := range names {
		e, err := reg.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, planStreamConfig{
			name: "registry/" + name,
			par:  par,
			new:  func() schemes.Scheme { return e.Factory(par) },
		})
	}
	for _, c := range tetris.OrderConfigs() {
		out = append(out, planStreamConfig{
			name: "tetris/" + c.Name,
			par:  par,
			new:  func() schemes.Scheme { return tetris.NewWithOptions(c.Par, c.Opt) },
		})
	}
	for _, g := range staticGeometries() {
		for _, name := range []string{"conventional", "dcw", "fnw", "twostage", "threestage"} {
			e, err := reg.Resolve(name)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, planStreamConfig{
				name: "static/" + g.name + "/" + name,
				par:  g.par,
				new:  func() schemes.Scheme { return e.Factory(g.par) },
			})
		}
	}
	return out
}

// staticGeometries are the geometries besides the default on which the
// static schemes' pulse order is pinned: x8 chips, alone and with a
// small budget; the split slot regime of a small budget; no global
// charge pump; 128-byte lines (64 cells); and two chips over 52-byte
// lines, whose 26 cells end in a partial 64-bit word.
func staticGeometries() []struct {
	name string
	par  pcm.Params
} {
	x8 := pcm.DefaultParams()
	x8.ChipWidthBits = 8
	x8b8 := x8
	x8b8.ChipBudget = 8
	b8 := pcm.DefaultParams()
	b8.ChipBudget = 8
	nogcp := pcm.DefaultParams()
	nogcp.GlobalChargePump = false
	wide := pcm.DefaultParams()
	wide.LineBytes = 128
	tail := pcm.DefaultParams()
	tail.NumChips = 2
	tail.LineBytes = 52
	tail.CapacityBytes = tail.CapacityBytes / 64 * 52 // as many lines
	return []struct {
		name string
		par  pcm.Params
	}{{"x8", x8}, {"x8-budget8", x8b8}, {"budget8", b8}, {"gcp-off", nogcp}, {"line128", wide}, {"chips2-line52", tail}}
}

// planHasher writes plans into a hash field by field, in a fixed order
// and fixed width, so the digest depends on values only — not on struct
// layout or formatting.
type planHasher struct {
	h   hash.Hash
	buf []byte
	// bad names the first plan whose carried counts differ from its
	// pulses, empty while every plan agrees.
	bad string
}

func (ph *planHasher) int(v int64) {
	ph.buf = binary.LittleEndian.AppendUint64(ph.buf, uint64(v))
}

func (ph *planHasher) bool(v bool) {
	if v {
		ph.buf = append(ph.buf, 1)
	} else {
		ph.buf = append(ph.buf, 0)
	}
}

// plan hashes the write-record tag 'W' (the golden digests include it),
// every Plan field but the derived Sets and Resets, every Pulse field of
// every pulse in plan order, and the line's flip tags after the plan.
// Sets and Resets are checked against the recount instead of hashed, so
// the digests stay those of the pulses alone.
func (ph *planHasher) plan(p schemes.Plan, flipTags uint64) {
	if sets, resets := p.Counts(); ph.bad == "" && (sets != p.Sets || resets != p.Resets) {
		ph.bad = fmt.Sprintf("plan carries %d SET and %d RESET cell pulses, its pulses hold %d and %d",
			p.Sets, p.Resets, sets, resets)
	}
	ph.buf = append(ph.buf[:0], 'W')
	ph.int(int64(p.Read))
	ph.int(int64(p.Analysis))
	ph.int(int64(p.Write))
	ph.int(int64(p.TSet))
	ph.int(int64(p.TReset))
	ph.int(int64(p.CurrentSet))
	ph.int(int64(p.CurrentReset))
	ph.int(int64(len(p.Pulses)))
	for _, pl := range p.Pulses {
		ph.int(int64(pl.Chip))
		ph.int(int64(pl.Unit))
		ph.int(int64(pl.Kind))
		ph.int(int64(pl.Start))
		ph.int(int64(pl.Mask))
		ph.bool(pl.FlipCell)
	}
	ph.int(int64(flipTags))
	ph.h.Write(ph.buf)
}

// replayDigest plans the stream on a fresh scheme, recycling every plan,
// and returns the SHA-256 of all plans and flip tags, and the first
// plan whose carried counts are wrong, if any.
func replayDigest(s schemes.Scheme, stream []linePair) (digest, bad string) {
	rec, _ := s.(schemes.PlanRecycler)
	tags, _ := s.(schemes.FlipTagger)
	flipTags := func(addr pcm.LineAddr) uint64 {
		if tags == nil {
			return 0
		}
		return tags.FlipTags(addr)
	}
	ph := &planHasher{h: sha256.New()}
	mem := map[pcm.LineAddr][]byte{}
	for _, w := range stream {
		old, ok := mem[w.addr]
		if !ok {
			old = w.old
		}
		p := s.PlanWrite(w.addr, old, w.new)
		ph.plan(p, flipTags(w.addr))
		if rec != nil {
			rec.RecyclePlan(p)
		}
		mem[w.addr] = w.new
	}
	return hex.EncodeToString(ph.h.Sum(nil)), ph.bad
}

// TestPlanStreamGolden pins every plan a captured vips write stream
// produces across every registry scheme, the Tetris geometry and
// option corners and the static schemes' geometry corners, to SHA-256
// digests recorded in testdata. A planner rewrite must leave every digest unchanged; run
// with -update only for a reviewed behaviour change.
func TestPlanStreamGolden(t *testing.T) {
	// The digest writes every field explicitly; a new field must be
	// added to planHasher.plan before this guard is relaxed. Of the 10,
	// the two derived counts Sets and Resets are checked, not hashed.
	if n := reflect.TypeOf(schemes.Plan{}).NumField(); n != 10 {
		t.Fatalf("schemes.Plan has %d fields, planHasher covers 10", n)
	}
	if n := reflect.TypeOf(schemes.Pulse{}).NumField(); n != 6 {
		t.Fatalf("schemes.Pulse has %d fields, planHasher hashes 6", n)
	}
	streams := map[pcm.Params][]linePair{}
	got := map[string]string{}
	for _, c := range planStreamConfigs(t) {
		if err := c.par.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		stream, ok := streams[c.par]
		if !ok {
			stream = captureVips(t, planStreamWrites, c.par)
			streams[c.par] = stream
		}
		d, bad := replayDigest(c.new(), stream)
		if bad != "" {
			t.Errorf("%s: %s", c.name, bad)
		}
		got[c.name] = d
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(planStreamGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(planStreamGolden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(planStreamGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, d := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden digest (run with -update to record)", name)
		} else if d != w {
			t.Errorf("%s: plan-stream digest %s, golden %s", name, d, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden digest for a configuration no longer replayed", name)
		}
	}
}
