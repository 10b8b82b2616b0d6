package system

import (
	"sync"
	"testing"

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/trace"
	"tetriswrite/internal/units"
	"tetriswrite/internal/workload"
)

// TestConcurrentRunsShareNothing runs four RunTraces over one shared
// record slice and four Runs with the fault model, wear tracking and
// telemetry at the same time, and requires every Result to equal the
// same run done alone. The sampler, the wear tracker and the fault
// injector take no locks because one engine goroutine owns each of
// them; under -race this test shows that no such state is shared
// between runs, and that replays only read the records they share.
func TestConcurrentRunsShareNothing(t *testing.T) {
	prof, err := workload.ProfileByName("vips")
	if err != nil {
		t.Fatal(err)
	}
	recs := trace.Generate(prof, 2, 7, pcm.DefaultParams(), 1000)
	var jobs []func() (Result, error)
	for _, mk := range allFactories[1:] {
		cfg := Config{InstrBudget: 100_000, Seed: 7, TrackWear: true, Epoch: 10 * units.Microsecond}
		jobs = append(jobs, func() (Result, error) { return RunTrace("vips", recs, 2, mk.factory, cfg) })
	}
	for _, mk := range allFactories[1:] {
		cfg := faultConfig()
		cfg.InstrBudget = 20_000
		cfg.TrackWear = true
		cfg.Epoch = 10 * units.Microsecond
		fprof := faultProfile(t)
		jobs = append(jobs, func() (Result, error) { return Run(fprof, mk.factory, cfg) })
	}

	serial := make([]string, len(jobs))
	for i, job := range jobs {
		res, err := job()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res.Wear == nil || res.Telemetry == nil {
			t.Fatalf("job %d lacks wear or telemetry: %+v", i, res)
		}
		serial[i] = canonicalDigest(t, res)
	}

	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = job()
		}()
	}
	wg.Wait()
	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if d := canonicalDigest(t, results[i]); d != serial[i] {
			t.Errorf("job %d: concurrent Result %s differs from the serial one %s", i, d, serial[i])
		}
	}
}
