package system

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tetriswrite/internal/guard"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/trace"
	"tetriswrite/internal/workload"
)

// FuzzRunTrace replays arbitrary parsed traces through RunTrace under a
// small instruction budget with the guard's deep checks on. Whatever
// the trace holds, the run must not panic out of RunTrace, must leave
// the records it was given byte-identical (write payloads alias the
// parsed stream, so a layer that wrote into one would corrupt every
// later replay), and must give the same Result and error when repeated
// on the same records. No input may end in a *PanicError: a trace
// whose addresses all fit the device must run without error, and one
// that addresses a line outside it must be rejected before the run
// starts. The input picks the scheme and whether the cache
// hierarchy is in front, so the corpus covers both ports a core writes
// through.
func FuzzRunTrace(f *testing.F) {
	par := pcm.DefaultParams()
	prof, _ := workload.ProfileByName("vips")
	for _, n := range []int{1, 40, 300} {
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf, 2, par.LineBytes)
		if err != nil {
			f.Fatal(err)
		}
		for _, rec := range trace.Generate(prof, 2, 5, par, n) {
			if err := w.Write(rec); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, seed := range parseCorpus(f, filepath.Join("..", "trace", "testdata", "fuzz", "FuzzParseTrace")) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, recs, err := trace.Parse(bytes.NewReader(data))
		// RunTrace's precondition, as pcmsim checks it: the trace's line
		// size is the device's. A handful of cores keeps each run small.
		if err != nil || len(recs) == 0 || int(hdr.LineBytes) != par.LineBytes || hdr.Cores > 8 {
			return
		}
		mk := allFactories[len(data)%len(allFactories)]
		cfg := Config{
			Params:      par,
			InstrBudget: 5_000,
			UseCaches:   len(data)/len(allFactories)%2 == 1,
			Guard:       guard.Config{Enabled: true, DeepChecks: true},
			MaxEvents:   1_000_000,
		}
		fits := true
		for _, r := range recs {
			fits = fits && int64(r.Op.Addr) < par.Lines()
		}
		before := hashRecords(recs)
		first, err1 := RunTrace("fuzz", recs, int(hdr.Cores), mk.factory, cfg)
		if after := hashRecords(recs); after != before {
			t.Fatalf("%s: the run changed the records it replayed", mk.name)
		}
		var pe *PanicError
		if errors.As(err1, &pe) {
			t.Fatalf("%s: the run panicked: %v\n%s", mk.name, pe, pe.Stack)
		}
		if fits && err1 != nil {
			t.Fatalf("%s: in-range trace failed: %v", mk.name, err1)
		}
		if !fits && err1 == nil {
			t.Fatalf("%s: a trace addressing lines outside the device ran", mk.name)
		}
		again, err2 := RunTrace("fuzz", recs, int(hdr.Cores), mk.factory, cfg)
		if fmt.Sprint(err1) != fmt.Sprint(err2) {
			t.Fatalf("%s: replay error %v, first run %v", mk.name, err2, err1)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("%s: replay differs from the first run:\nfirst: %+v\nagain: %+v", mk.name, first, again)
		}
	})
}

// hashRecords digests every field of every record, payload bytes
// included.
func hashRecords(recs []trace.Record) [sha256.Size]byte {
	h := sha256.New()
	for _, r := range recs {
		fmt.Fprintf(h, "%d %d %d %t %x\n", r.Core, r.Op.Think, r.Op.Addr, r.Op.Write, r.Op.Data)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// parseCorpus reads the []byte inputs of a Go fuzz corpus directory:
// files of a "go test fuzz v1" line and one []byte("...") literal.
func parseCorpus(tb testing.TB, dir string) [][]byte {
	tb.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			tb.Fatalf("%s: not a one-value fuzz corpus file", e.Name())
		}
		lit, pre := strings.CutPrefix(lines[1], "[]byte(")
		lit, suf := strings.CutSuffix(lit, ")")
		if !pre || !suf {
			tb.Fatalf("%s: value is not a []byte literal", e.Name())
		}
		s, err := strconv.Unquote(lit)
		if err != nil {
			tb.Fatalf("%s: %v", e.Name(), err)
		}
		out = append(out, []byte(s))
	}
	return out
}
