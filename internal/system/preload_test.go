package system

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"tetriswrite/internal/cache"
	"tetriswrite/internal/cpu"
	"tetriswrite/internal/guard"
	"tetriswrite/internal/linestore"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/units"
	"tetriswrite/internal/workload"
)

// touchRecorder collects the distinct lines that reached the preload
// port, in a linestore.Set as the reference first-touch tracker.
type touchRecorder struct {
	ref   *linestore.Set
	lines []pcm.LineAddr
}

func (r *touchRecorder) note(addr pcm.LineAddr) {
	if r.ref.Add(int64(addr)) {
		r.lines = append(r.lines, addr)
	}
}

// recordingPort sits below the preload port and notes every line the
// preload port forwarded, each of which it had ensured first.
type recordingPort struct {
	cpu.MemPort
	rec *touchRecorder
}

func (p recordingPort) SubmitRead(addr pcm.LineAddr, onDone func(at units.Time, data []byte)) bool {
	p.rec.note(addr)
	return p.MemPort.SubmitRead(addr, onDone)
}

func (p recordingPort) SubmitWrite(addr pcm.LineAddr, data []byte, onDone func(at units.Time)) bool {
	p.rec.note(addr)
	return p.MemPort.SubmitWrite(addr, data, onDone)
}

// runRecordingPreload runs prof the way Run does and records every line
// the preload port forwards.
func runRecordingPreload(t *testing.T, prof workload.Profile, factory schemes.Factory, cfg Config) (*preloadPort, *touchRecorder) {
	t.Helper()
	cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	prog := workload.NewProgram(prof, cfg.Cores, cfg.Seed, cfg.Params)
	srcs := make([]cpu.OpSource, cfg.Cores)
	for i := range srcs {
		srcs[i] = prog.Generator(i)
	}
	p := &platform{eng: &sim.Engine{}}
	fp := guard.Fingerprint{Seed: cfg.Seed, Workload: prof.Name, Scheme: factory(cfg.Params).Name()}
	if err := p.assemble(cfg, factory, fp, prog, srcs); err != nil {
		t.Fatal(err)
	}
	rec := &touchRecorder{ref: linestore.NewSet()}
	p.preload.down = recordingPort{MemPort: p.preload.down, rec: rec}
	if err := runEngine(context.Background(), p.eng, cfg, fp, p.sampler); err != nil {
		t.Fatal(err)
	}
	return p.preload, rec
}

// count returns the number of lines marked touched, which is the number
// of lines the preload port installed: it installs exactly when add
// reports a first touch.
func (f *firstTouch) count() int {
	n := 0
	for _, bm := range append([][]uint64{f.resident}, f.frontier...) {
		for _, w := range bm {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// TestPreloadInstallsEachLineOnce: over whole runs — plain, behind a
// cache small enough to write dirty lines back, and under Start-Gap
// translation — the
// preload port installs exactly the lines that reached it, each once,
// as a linestore.Set would have decided.
func TestPreloadInstallsEachLineOnce(t *testing.T) {
	vips, err := workload.ProfileByName("vips")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{InstrBudget: 400_000, Seed: 3}},
		// Behind the Table II hierarchy no line is written back in a run
		// this short, so a frontier line would never reach the port.
		{"caches", Config{InstrBudget: 400_000, Seed: 3, UseCaches: true, CacheLevels: []cache.LevelConfig{
			{Name: "L1", SizeBytes: 16 << 10, LineBytes: 64, Ways: 4, Latency: cpuClock.Cycles(2)},
		}}},
		{"startgap", Config{InstrBudget: 400_000, Seed: 3, WearLevelPsi: 50}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			port, rec := runRecordingPreload(t, vips, tetris.New, tc.cfg)
			fresh := 0
			for _, addr := range rec.lines {
				if port.seen.add(addr) {
					t.Fatalf("line %d reached the preload port but was never installed", addr)
				}
				if int64(addr) >= port.seen.footprint {
					fresh++
				}
			}
			if marked := port.seen.count(); marked != len(rec.lines) {
				t.Errorf("%d lines installed, %d distinct lines reached the port", marked, len(rec.lines))
			}
			if fresh == 0 || fresh == len(rec.lines) {
				t.Errorf("%d of %d lines in frontier windows: the run does not cover both region kinds", fresh, len(rec.lines))
			}
		})
	}
}

// TestFirstTouchMatchesSet drives the tracker with a synthetic stream:
// random resident lines, each core's frontier advancing through the end
// of its window and wrapping back to the start, and sparse jumps inside
// the windows. Every first-touch answer must equal linestore.Set's.
func TestFirstTouchMatchesSet(t *testing.T) {
	vips, err := workload.ProfileByName("vips")
	if err != nil {
		t.Fatal(err)
	}
	prog := workload.NewProgram(vips, 3, 1, pcm.DefaultParams())
	f := newFirstTouch(prog)
	ref := linestore.NewSet()
	check := func(addr pcm.LineAddr) {
		t.Helper()
		if got, want := f.add(addr), ref.Add(int64(addr)); got != want {
			t.Fatalf("first touch of line %d: tracker says %v, set says %v", addr, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	fp := prog.AddressFootprint()
	for i := 0; i < 20_000; i++ {
		check(pcm.LineAddr(rng.Int63n(fp)))
	}
	check(0)
	check(pcm.LineAddr(fp - 1))
	for core := 0; core < prog.Cores(); core++ {
		base, lines := prog.FrontierWindow(core)
		for i := int64(0); i < 200; i++ {
			check(base + pcm.LineAddr(i))
		}
		// The frontier's last lines, then the wrap back to the start.
		for i := lines - 130; i < lines; i++ {
			check(base + pcm.LineAddr(i))
		}
		for i := int64(0); i < 300; i++ {
			check(base + pcm.LineAddr(i))
		}
		for i := 0; i < 2_000; i++ {
			check(base + pcm.LineAddr(rng.Int63n(lines)))
		}
	}
}

// TestFirstTouchOutOfRegionPanics: a line no Generator of the program
// can name panics with a message naming it.
func TestFirstTouchOutOfRegionPanics(t *testing.T) {
	vips, err := workload.ProfileByName("vips")
	if err != nil {
		t.Fatal(err)
	}
	prog := workload.NewProgram(vips, 2, 1, pcm.DefaultParams())
	base, lines := prog.FrontierWindow(prog.Cores())
	for _, addr := range []pcm.LineAddr{-1, base, base + pcm.LineAddr(lines), math.MaxInt64} {
		t.Run(fmt.Sprint(addr), func(t *testing.T) {
			f := newFirstTouch(prog)
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, fmt.Sprintf("line %d is outside", addr)) {
					t.Errorf("panic %q does not name line %d", msg, addr)
				}
			}()
			f.add(addr)
		})
	}
}
