package workload

import (
	"fmt"
	"strings"
	"testing"

	"tetriswrite/internal/pcm"
)

// pipelineLengths are stream lengths, in ops, around every place a
// Pipeline changes hands: inside the inline batch, on its last op and
// the one after, on the first producer batch's last op and the one
// after, and several batches in.
var pipelineLengths = []int{
	1, inlineOps / 2, inlineOps - 1, inlineOps, inlineOps + 1,
	inlineOps + batchOps, inlineOps + batchOps + 1, inlineOps + 4*batchOps + 7,
}

// budgetFor returns the budget on which core 0's stream of the program
// ends after exactly ops ops: their think total, which the last one's
// gap reaches and no earlier one's does.
func budgetFor(prog *Program, ops int) int64 {
	g := prog.Generator(0)
	var budget int64
	for range ops {
		budget += g.Next().Think
	}
	return budget
}

// checkPipeline checks that a Pipeline of the program yields the same
// ops as its live Generators, payloads included, up to each core's
// last op, that core 0's stream is ops ops long, that only the streams
// that outlast the inline batch start a producer, and that Next past
// the end panics naming the core and the op.
func checkPipeline(t testing.TB, prof Profile, cores int, seed int64, lineBytes, ops int) {
	t.Helper()
	par := pcm.DefaultParams()
	par.LineBytes = lineBytes
	prog := NewProgram(prof, cores, seed, par)
	budget := budgetFor(NewProgram(prof, cores, seed, par), ops)
	pl := prog.Pipeline(budget)
	defer pl.Stop()
	srcs := make([]interface{ Next() Op }, cores)
	for c := range srcs {
		srcs[c] = pl.Source(c)
	}
	got := checkStreams(t, prof, cores, seed, par, budget, srcs)
	if got[0] != ops {
		t.Fatalf("%s seed %d: core 0's stream is %d ops long under budget %d, want %d", prof.Name, seed, got[0], budget, ops)
	}
	for c, n := range got {
		if started := pl.pipes[c].full != nil; started != (n > inlineOps) {
			t.Errorf("%s seed %d: core %d's %d-op stream started a producer: %v", prof.Name, seed, c, n, started)
		}
		checkPastEnd(t, srcs[c], fmt.Sprintf("core %d pipeline ran past its end: op %d ", c, n))
	}
}

// TestPipelineMatchesGenerator: a Pipeline is the live stream for every
// profile, two seeds, every line size and one and four cores, with
// core 0's stream ending at each of pipelineLengths in turn.
func TestPipelineMatchesGenerator(t *testing.T) {
	i := 0
	for _, prof := range Profiles() {
		for _, seed := range []int64{1, 7} {
			for _, lineBytes := range []int{64, 128, 256} {
				for _, cores := range []int{1, 4} {
					checkPipeline(t, prof, cores, seed, lineBytes, pipelineLengths[i%len(pipelineLengths)])
					i++
				}
			}
		}
	}
}

// FuzzPipelinedMatchesGenerator is TestPipelineMatchesGenerator over
// fuzzed profiles, seeds, line sizes, core counts and stream lengths.
func FuzzPipelinedMatchesGenerator(f *testing.F) {
	for i, n := range pipelineLengths {
		f.Add(uint8(i), int64(i+1), uint8(i), uint8(i), uint16(n))
	}
	f.Fuzz(func(t *testing.T, profile uint8, seed int64, line, cores uint8, ops uint16) {
		prof := Profiles()[int(profile)%len(Profiles())]
		lineBytes := []int{64, 128, 256}[int(line)%3]
		checkPipeline(t, prof, 1+int(cores)%4, seed, lineBytes, 1+int(ops)%(inlineOps+4*batchOps))
	})
}

// TestPipelineForwardsProducerPanic: a panic on a producer goroutine
// does not crash the process; the core's next Next raises it on the
// caller's goroutine, naming the core.
func TestPipelineForwardsProducerPanic(t *testing.T) {
	prof, err := ProfileByName("vips")
	if err != nil {
		t.Fatal(err)
	}
	pl := NewProgram(prof, 1, 1, pcm.DefaultParams()).Pipeline(1 << 40)
	defer pl.Stop()
	pp := pl.Source(0)
	// Stop the healthy producer, then start one whose first shared
	// access dereferences a nil program.
	pl.Stop()
	pp.gen.prog = nil
	pp.first.ops = pp.first.ops[:0]
	pl.start(pp)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "core 0 draw panicked") {
			t.Errorf("Next after a producer panic: panic %q, want the producer's", msg)
		}
	}()
	pp.Next()
}

// TestPipelineReadAfterStop: reading a stopped Pipeline past the
// batches its producer drew panics instead of blocking.
func TestPipelineReadAfterStop(t *testing.T) {
	prof, err := ProfileByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	pl := NewProgram(prof, 2, 1, pcm.DefaultParams()).Pipeline(1 << 40)
	pl.Stop()
	pl.Stop()
	pp := pl.Source(1)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "core 1 pipeline read after Stop") {
			t.Errorf("Next after Stop: panic %q", msg)
		}
	}()
	for range inlineOps + coreBatches*batchOps + 1 {
		pp.Next()
	}
}

// TestPipelineStopWaitsForProducers: when Stop returns, every producer
// has returned too: each has closed its channel of drawn batches.
func TestPipelineStopWaitsForProducers(t *testing.T) {
	prof, err := ProfileByName("vips")
	if err != nil {
		t.Fatal(err)
	}
	pl := NewProgram(prof, 4, 1, pcm.DefaultParams()).Pipeline(1 << 40)
	pl.Stop()
	for c := range pl.pipes {
		full := pl.pipes[c].full
		if full == nil {
			t.Fatalf("core %d started no producer", c)
		}
		for open := true; open; {
			select {
			case _, open = <-full:
			default:
				t.Fatalf("core %d's producer was still running when Stop returned", c)
			}
		}
	}
}
