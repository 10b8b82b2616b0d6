package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tetriswrite/internal/pcm"
)

var update = flag.Bool("update", false, "rewrite golden files")

// streamGoldenOps is how many operations of each stream the golden pins.
const streamGoldenOps = 20000

// streamCase is one pinned generator stream: a profile (possibly with a
// non-default knob), a program seed and the core whose stream is hashed.
type streamCase struct {
	name string
	prof Profile
	seed int64
	core int
}

func streamCases(t *testing.T) []streamCase {
	var cases []streamCase
	for _, p := range Profiles() {
		for _, seed := range []int64{1, 42} {
			for _, core := range []int{0, 3} {
				cases = append(cases, streamCase{
					name: fmt.Sprintf("%s/seed=%d/core=%d", p.Name, seed, core),
					prof: p, seed: seed, core: core,
				})
			}
		}
	}
	vips, err := ProfileByName("vips")
	if err != nil {
		t.Fatal(err)
	}
	bursty := vips
	bursty.Burstiness = 0.8
	tiny := vips
	tiny.PrivateLines = 8 // private zipf over [0, 7]
	return append(cases,
		streamCase{name: "vips+burstiness=0.8/seed=1/core=0", prof: bursty, seed: 1},
		streamCase{name: "vips+private_lines=8/seed=1/core=0", prof: tiny, seed: 1},
	)
}

// streamDigest hashes the first n operations of a generator: Think and
// Addr as little-endian int64, Write as one byte, then the payload.
func streamDigest(g *Generator, n int) string {
	h := sha256.New()
	var rec [17]byte
	for i := 0; i < n; i++ {
		op := g.Next()
		binary.LittleEndian.PutUint64(rec[0:], uint64(op.Think))
		rec[8] = 0
		if op.Write {
			rec[8] = 1
		}
		binary.LittleEndian.PutUint64(rec[9:], uint64(op.Addr))
		h.Write(rec[:])
		h.Write(op.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorStreamGolden pins every generator stream bit for bit
// against testdata/stream_golden.json: the exact sequence of think gaps,
// read/write choices, addresses and payloads. The schemes' results
// depend on the content of every write, so any change to the random
// stream — its source, its derived draws or their order — shows up
// here. Rerun with -update only for an intended change of workload.
func TestGeneratorStreamGolden(t *testing.T) {
	par := pcm.DefaultParams()
	got := map[string]string{}
	for _, c := range streamCases(t) {
		g := NewProgram(c.prof, 4, c.seed, par).Generator(c.core)
		got[c.name] = streamDigest(g, streamGoldenOps)
	}
	golden := filepath.Join("testdata", "stream_golden.json")
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", golden, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d streams, the test generates %d (rerun with -update if intended)", golden, len(want), len(got))
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("stream %s drifted from %s: got %s, want %s", name, golden, d, want[name])
		}
	}
}
