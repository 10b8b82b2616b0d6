package workload

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"tetriswrite/internal/pcm"
)

// checkReplay records a program's streams up to budget and checks that
// every core's Replay yields the same ops as its live Generator (see
// checkStreams), then that one more Next panics naming the core and
// the op index.
func checkReplay(t testing.TB, prof Profile, cores int, seed int64, lineBytes int, budget int64) {
	t.Helper()
	par := pcm.DefaultParams()
	par.LineBytes = lineBytes
	rec, err := Record(context.Background(), prof, cores, seed, par, budget)
	if err != nil {
		t.Fatal(err)
	}
	replayed := NewProgram(prof, cores, seed, par)
	reps := make([]interface{ Next() Op }, cores)
	for c := range reps {
		reps[c] = rec.Replay(replayed, c)
	}
	ops := checkStreams(t, prof, cores, seed, par, budget, reps)
	for c, rp := range reps {
		checkPastEnd(t, rp, fmt.Sprintf("core %d replay ran past its end: op %d ", c, ops[c]))
	}
}

// checkStreams checks that srcs yield the same ops as the program's
// live Generators, payload bytes included, with the cores taking turns
// op by op so shared lines see the same interleaving on both sides. It
// follows each stream to the op a cpu.Core with the given budget stops
// on, and returns each core's op count.
func checkStreams(t testing.TB, prof Profile, cores int, seed int64, par pcm.Params, budget int64, srcs []interface{ Next() Op }) []int {
	t.Helper()
	live := NewProgram(prof, cores, seed, par)
	gens := make([]*Generator, cores)
	for c := range gens {
		gens[c] = live.Generator(c)
	}
	retired, ops := make([]int64, cores), make([]int, cores)
	for left := cores; left > 0; {
		for c := range gens {
			if ops[c] < 0 {
				continue
			}
			want, got := gens[c].Next(), srcs[c].Next()
			if got.Think != want.Think || got.Write != want.Write || got.Addr != want.Addr || !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("%s seed %d, %d-byte lines, %d cores, budget %d: core %d op %d: source %+v, generator %+v",
					prof.Name, seed, par.LineBytes, cores, budget, c, ops[c], got, want)
			}
			ops[c]++
			if want.Think >= budget-retired[c] {
				ops[c], left = -ops[c], left-1 // the core's last op: mark it done
				continue
			}
			retired[c] += want.Think
		}
	}
	for c := range ops {
		ops[c] = -ops[c]
	}
	return ops
}

// checkPastEnd checks that src's next Next panics with a message
// containing want.
func checkPastEnd(t testing.TB, src interface{ Next() Op }, want string) {
	t.Helper()
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
			t.Errorf("Next past the end: panic %q, want it to contain %q", msg, want)
		}
	}()
	src.Next()
}

// TestReplayMatchesGenerator: a replayed recording is the live stream,
// for every profile, two seeds, every line size and one and four cores,
// all the way to each core's last op under the budget.
func TestReplayMatchesGenerator(t *testing.T) {
	for _, prof := range Profiles() {
		for _, seed := range []int64{1, 7} {
			for _, lineBytes := range []int{64, 128, 256} {
				for _, cores := range []int{1, 4} {
					checkReplay(t, prof, cores, seed, lineBytes, 200_000)
				}
			}
		}
	}
}

// FuzzReplayMatchesGenerator is TestReplayMatchesGenerator over fuzzed
// seeds and budgets.
func FuzzReplayMatchesGenerator(f *testing.F) {
	f.Add(uint8(7), int64(1), uint8(0), uint8(3), uint32(50_000))
	f.Add(uint8(2), int64(7), uint8(2), uint8(0), uint32(1))
	f.Fuzz(func(t *testing.T, profile uint8, seed int64, line, cores uint8, budget uint32) {
		prof := Profiles()[int(profile)%len(Profiles())]
		lineBytes := []int{64, 128, 256}[int(line)%3]
		checkReplay(t, prof, 1+int(cores)%4, seed, lineBytes, 1+int64(budget)%200_000)
	})
}

// TestRecordStopsOnDoneContext: a draw whose context is done stops at
// its next poll and returns no recording and the context's error.
func TestRecordStopsOnDoneContext(t *testing.T) {
	prof, err := ProfileByName("vips")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec, err := Record(ctx, prof, 2, 1, pcm.DefaultParams(), 1<<40)
	if rec != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Record under a cancelled context = %v, %v; want nil, context.Canceled", rec, err)
	}
}
