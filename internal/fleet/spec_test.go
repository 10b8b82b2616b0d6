package fleet

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

func TestSpecNormalizeDefaults(t *testing.T) {
	var s SweepSpec
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Instr != 1_000_000 || s.Cores != 4 || s.LineBytes != 64 || s.Engine != "wheel" {
		t.Errorf("defaults wrong: %+v", s)
	}
	if len(s.Seeds) != 1 || s.Seeds[0] != 1 {
		t.Errorf("Seeds = %v, want [1]", s.Seeds)
	}
	if len(s.Figs) != 4 || s.Retries != 3 {
		t.Errorf("Figs = %v, Retries = %d", s.Figs, s.Retries)
	}
	if got := len(s.Shards()); got != 40 {
		t.Errorf("default grid expands to %d shards, want 40 (8 workloads x 5 schemes)", got)
	}
}

func TestSpecNormalizeRejectsBadInputs(t *testing.T) {
	cases := []SweepSpec{
		{Workloads: []string{"no-such-workload"}},
		{Schemes: []string{"no-such-scheme"}},
		{Engine: "bogo-queue"},
		{Figs: []int{3}}, // needs per-write sampling, not renderable from summaries
		{Figs: []int{15}},
		{Retries: -1},
		{ShardTimeout: "ninety seconds"},
		{Deadline: "-5s"},
		{LineBytes: -1},
	}
	for i, s := range cases {
		if err := s.Normalize(); err == nil {
			t.Errorf("case %d (%+v): Normalize accepted a bad spec", i, s)
		}
	}
}

// The simulator has one event queue. The wire format still names two,
// and both names (and the empty default) must select it: a shard gives
// the same Summary under either.
func TestSpecEngineNamesSelectOneQueue(t *testing.T) {
	var sums []string
	for _, engine := range []string{"", "wheel", "heap"} {
		s := SweepSpec{Workloads: []string{"vips"}, Schemes: []string{"tetris"}, Instr: 2000, Cores: 2, Engine: engine}
		if err := s.Normalize(); err != nil {
			t.Fatalf("engine %q: %v", engine, err)
		}
		sum, err := RunShard(context.Background(), s.Shards()[0])
		if err != nil {
			t.Fatalf("engine %q: %v", engine, err)
		}
		sums = append(sums, fmt.Sprintf("%+v", sum))
	}
	if sums[0] != sums[1] || sums[1] != sums[2] {
		t.Errorf("engine names select different runs:\n%s", strings.Join(sums, "\n"))
	}
}

// TestShardsDeterministicOrder: the same spec always expands to the
// identical shard list — journal resume addresses shards by index, so
// the expansion order is load-bearing.
func TestShardsDeterministicOrder(t *testing.T) {
	s := SweepSpec{Seeds: []int64{2, 1}, Workloads: []string{"vips", "ferret"}, Schemes: []string{"tetris", "baseline"}}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	a, b := s.Shards(), s.Shards()
	if len(a) != 8 {
		t.Fatalf("len = %d, want 2 seeds x 2 workloads x 2 schemes = 8", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("expansion not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Seed-major, then workload in the given order, then scheme.
	if a[0].Seed != 2 || a[0].Workload != "vips" || a[0].Scheme != "tetris" {
		t.Errorf("first shard = %+v", a[0])
	}
	if a[4].Seed != 1 {
		t.Errorf("shard 4 = %+v, want the second seed block", a[4])
	}
}

func TestFingerprintDistinguishesEveryField(t *testing.T) {
	base := ShardSpec{Workload: "vips", Scheme: "tetris", Seed: 1, Instr: 1000, Cores: 4, LineBytes: 64, Engine: "wheel"}
	if base.Fingerprint() != base.Fingerprint() {
		t.Fatal("fingerprint unstable")
	}
	variants := []ShardSpec{base, base, base, base, base, base, base}
	variants[0].Workload = "ferret"
	variants[1].Scheme = "fnw"
	variants[2].Seed = 2
	variants[3].Instr = 2000
	variants[4].Cores = 8
	variants[5].LineBytes = 128
	variants[6].Engine = "heap"
	seen := map[string]int{base.Fingerprint(): -1}
	for i, v := range variants {
		fp := v.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("variant %d collides with %d: %s", i, prev, fp)
		}
		seen[fp] = i
	}
	if len(base.Fingerprint()) != 16 {
		t.Errorf("fingerprint %q is not 16 hex chars", base.Fingerprint())
	}
}

// TestRunShardMatchesFingerprintContract: the same spec run twice
// yields identical summaries — the determinism the whole broker design
// (dedup, cache, retry-anywhere) is built on.
func TestRunShardMatchesFingerprintContract(t *testing.T) {
	sp := ShardSpec{Workload: "vips", Scheme: "tetris", Seed: 1, Instr: 2000, Cores: 2, LineBytes: 64, Engine: "wheel"}
	s1, err := RunShard(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := RunShard(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Errorf("RunShard not deterministic:\n%+v\n%+v", s1, s2)
	}
	if s1.Workload != "vips" || s1.Scheme != "tetris" || s1.IPC <= 0 {
		t.Errorf("summary implausible: %+v", s1)
	}
	if !strings.Contains(sp.String(), "vips/tetris/seed1") {
		t.Errorf("String() = %q", sp.String())
	}
}

func TestRunShardUnknownNames(t *testing.T) {
	if _, err := RunShard(context.Background(), ShardSpec{Workload: "nope", Scheme: "tetris", Instr: 100, Cores: 1, Engine: "wheel"}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := RunShard(context.Background(), ShardSpec{Workload: "vips", Scheme: "nope", Instr: 100, Cores: 1, Engine: "wheel"}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// TestFingerprintCanonicalizesSchemes: the v2 fingerprint hashes the
// registry-canonical scheme name, so alias spellings share one cache
// entry while distinct compositions stay distinct.
func TestFingerprintCanonicalizesSchemes(t *testing.T) {
	fp := func(scheme string) string {
		s := ShardSpec{Workload: "vips", Scheme: scheme, Seed: 1, Instr: 1000,
			Cores: 4, LineBytes: 64, Engine: "wheel"}
		return s.Fingerprint()
	}
	same := [][2]string{
		{"baseline", "dcw"},
		{"2stage", "twostage"},
		{"3stage", "threestage"},
		{"flip-n-write", "fnw"},
		{"baseline+remap", "dcw+remap"},
	}
	for _, pair := range same {
		if fp(pair[0]) != fp(pair[1]) {
			t.Errorf("Fingerprint(%q) != Fingerprint(%q): aliases must share cache entries", pair[0], pair[1])
		}
	}
	distinct := []string{"conventional", "dcw", "fnw", "twostage", "threestage", "tetris", "dcw+remap", "tetris+remap"}
	seen := map[string]string{}
	for _, name := range distinct {
		h := fp(name)
		if prev, dup := seen[h]; dup {
			t.Errorf("Fingerprint(%q) collides with %q", name, prev)
		}
		seen[h] = name
	}
}

// TestRunShardComposedScheme: every registry scheme, under its
// canonical name, an alias or a remap composition, runs end to end
// through the fleet shard runner, deterministically, and the summary
// carries the canonical name.
func TestRunShardComposedScheme(t *testing.T) {
	for _, tc := range [][2]string{
		{"conventional", "conventional"}, {"baseline", "dcw"}, {"fnw", "fnw"},
		{"2stage", "twostage"}, {"threestage", "threestage"}, {"tetris", "tetris"},
		{"baseline+remap", "dcw+remap"},
	} {
		scheme, canonical := tc[0], tc[1]
		sp := ShardSpec{Workload: "canneal", Scheme: scheme, Seed: 1,
			Instr: 2000, Cores: 2, LineBytes: 64, Engine: "wheel"}
		s1, err := RunShard(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := RunShard(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		if s1 != s2 {
			t.Errorf("%s shard not deterministic:\n%+v\n%+v", scheme, s1, s2)
		}
		if s1.Scheme != canonical {
			t.Errorf("%s: summary scheme = %q, want %q", scheme, s1.Scheme, canonical)
		}
	}
}

// TestSpecNormalizeAcceptsComposedSchemes: the sweep grid validates
// scheme names through the registry, so every registry name, alias and
// remap composition is sweepable, and an unknown name — a typo, the
// deleted adaptive scheme, or a composition with the deleted flipmin
// decorator — is rejected at spec time with the sorted catalogue, not
// deep inside a worker.
func TestSpecNormalizeAcceptsComposedSchemes(t *testing.T) {
	s := SweepSpec{Workloads: []string{"vips"}, Schemes: []string{"conventional", "baseline", "fnw", "2stage", "3stage", "tetris", "dcw+remap"}}
	if err := s.Normalize(); err != nil {
		t.Fatalf("registry schemes rejected: %v", err)
	}
	for _, name := range []string{"dwc", "adaptive", "dcw+flipmin", "fnw+flipmin"} {
		bad := SweepSpec{Workloads: []string{"vips"}, Schemes: []string{"dcw", name}}
		err := bad.Normalize()
		if err == nil {
			t.Errorf("unknown scheme %s accepted by Normalize", name)
		} else if !strings.Contains(err.Error(), "2stage, 3stage, baseline, conventional") {
			t.Errorf("Normalize(%s) error lacks the sorted catalogue: %v", name, err)
		}
	}
}
