// Package fleet is the distributed sweep service: a broker that accepts
// sweep jobs (workload x scheme x seed grids) over HTTP and net/rpc and
// fans the individual full-system simulations — shards — out to a fleet
// of registered workers.
//
// The design is fault-tolerant by construction rather than by recovery
// heroics, leaning on one property of the simulator: a shard is a pure
// function of its spec. Every (seed, workload, scheme, budget) cell
// produces a byte-identical Result wherever and whenever it runs, so
// the broker is free to re-issue work aggressively — lease-expired
// shards retry on surviving workers with exponential backoff and
// jitter, duplicated completions are deduplicated by fingerprint (and
// cross-checked: a duplicate that disagrees is a determinism violation,
// reported loudly), and the journaled completion log doubles as both a
// crash-resume checkpoint and a response cache for identical future
// requests.
//
// Liveness is lease-based: workers register, heartbeat on an interval
// the broker dictates, and are deregistered when a lease expires —
// their in-flight shards return to the queue. Clients interact over
// plain HTTP (submit, status, cancel, result, JSON-lines event and
// telemetry streams); workers speak net/rpc with gob encoding.
package fleet

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"tetriswrite/internal/exp"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/registry"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/system"
	"tetriswrite/internal/workload"
)

// SweepSpec is a client-submitted job: the sweep grid plus the
// simulation and supervision knobs. The zero value of every field means
// "default"; Normalize resolves them so the same spec always expands to
// the same shard list — the property journal resume depends on.
type SweepSpec struct {
	// Workloads and Schemes name the grid axes; empty selects the full
	// paper set (8 workloads, 5 schemes). The first scheme is the
	// normalization baseline of every rendered table.
	Workloads []string `json:"workloads,omitempty"`
	Schemes   []string `json:"schemes,omitempty"`
	// Seeds lists the workload seeds to sweep; empty means [1].
	Seeds []int64 `json:"seeds,omitempty"`

	// Instr is the per-core instruction budget (default 1M, matching
	// tetrisbench); Cores the core count (default 4); LineBytes the
	// cache line size (default 64). Engine is the name of the event
	// queue ("wheel" or "heap", default wheel): the simulator has one
	// queue and both names select it, but the field stays in the wire
	// format and in shard fingerprints.
	Instr     int64  `json:"instr,omitempty"`
	Cores     int    `json:"cores,omitempty"`
	LineBytes int    `json:"line,omitempty"`
	Engine    string `json:"engine,omitempty"`

	// Figs selects the tables rendered by the result endpoint, in
	// order (11-14; default all four). Energy appends the energy-per-
	// write table.
	Figs   []int `json:"figs,omitempty"`
	Energy bool  `json:"energy,omitempty"`

	// Retries is the extra attempts each shard gets beyond the first
	// (default 3); ShardTimeout bounds one attempt's wall-clock time
	// ("90s"; empty means none); Deadline bounds the whole job ("10m";
	// empty means none). Durations use Go syntax.
	Retries      int    `json:"retries,omitempty"`
	ShardTimeout string `json:"shard_timeout,omitempty"`
	Deadline     string `json:"deadline,omitempty"`
}

// Normalize fills defaults and validates the grid names and durations.
func (s *SweepSpec) Normalize() error {
	if _, err := exp.ResolveProfiles(s.Workloads); err != nil {
		return err
	}
	if _, err := exp.ResolveSchemes(s.Schemes); err != nil {
		return err
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{1}
	}
	if s.Instr <= 0 {
		s.Instr = 1_000_000
	}
	if s.Cores <= 0 {
		s.Cores = 4
	}
	if s.LineBytes == 0 {
		s.LineBytes = pcm.DefaultParams().LineBytes
	}
	par := pcm.DefaultParams()
	par.LineBytes = s.LineBytes
	if err := par.Validate(); err != nil {
		return fmt.Errorf("fleet: line %d: %w", s.LineBytes, err)
	}
	if s.Engine == "" {
		s.Engine = string(sim.QueueWheel)
	}
	if !sim.QueueKind(s.Engine).Valid() {
		return fmt.Errorf("fleet: unknown engine %q (want wheel or heap)", s.Engine)
	}
	if len(s.Figs) == 0 {
		s.Figs = []int{11, 12, 13, 14}
	}
	for _, f := range s.Figs {
		if f < 11 || f > 14 {
			return fmt.Errorf("fleet: figure %d not renderable from shard summaries (want 11-14)", f)
		}
	}
	if s.Retries < 0 {
		return fmt.Errorf("fleet: retries %d: cannot be negative", s.Retries)
	}
	if s.Retries == 0 {
		s.Retries = 3
	}
	for _, d := range []string{s.ShardTimeout, s.Deadline} {
		if d == "" {
			continue
		}
		if v, err := time.ParseDuration(d); err != nil || v <= 0 {
			return fmt.Errorf("fleet: bad duration %q", d)
		}
	}
	return nil
}

// shardTimeout returns the parsed per-attempt timeout (0 = none).
func (s *SweepSpec) shardTimeout() time.Duration { return parsedDuration(s.ShardTimeout) }

// deadline returns the parsed job deadline (0 = none).
func (s *SweepSpec) deadline() time.Duration { return parsedDuration(s.Deadline) }

func parsedDuration(d string) time.Duration {
	if d == "" {
		return 0
	}
	v, err := time.ParseDuration(d)
	if err != nil {
		return 0
	}
	return v
}

// Shards expands the normalized spec into its shard list, seed-major
// then workload then scheme — a deterministic order, so a resumed
// broker re-expands the journaled spec into the identical list and the
// journal's shard indices stay meaningful across restarts.
func (s *SweepSpec) Shards() []ShardSpec {
	profiles, _ := exp.ResolveProfiles(s.Workloads)
	schemes, _ := exp.ResolveSchemes(s.Schemes)
	out := make([]ShardSpec, 0, len(s.Seeds)*len(profiles)*len(schemes))
	for _, seed := range s.Seeds {
		for _, p := range profiles {
			for _, nf := range schemes {
				out = append(out, ShardSpec{
					Workload:  p.Name,
					Scheme:    nf.Name,
					Seed:      seed,
					Instr:     s.Instr,
					Cores:     s.Cores,
					LineBytes: s.LineBytes,
					Engine:    s.Engine,
				})
			}
		}
	}
	return out
}

// ShardSpec is one unit of distributable work: everything a worker
// needs to run one full-system simulation cell. Two equal ShardSpecs
// produce byte-identical Summaries on any worker — the contract the
// broker's dedup, retry and response cache all rest on.
type ShardSpec struct {
	Workload  string
	Scheme    string
	Seed      int64
	Instr     int64
	Cores     int
	LineBytes int
	Engine    string
}

// Fingerprint is the shard's identity across jobs, workers and broker
// restarts: an FNV-64a hash of the canonical spec rendering. Equal
// fingerprints mean "same deterministic computation", which is what
// licenses serving a shard from the completed-shard cache instead of
// running it again.
//
// The scheme name is canonicalized through the registry before hashing
// (v2): "baseline" and "dcw", or "2stage" and "twostage", are the same
// computation under different display labels and must share one cache
// entry, while every distinct composed name ("dcw+flipmin+remap") stays
// a distinct identity. A name the registry cannot resolve hashes as
// spelled — Normalize has already rejected it for real jobs.
func (s ShardSpec) Fingerprint() string {
	scheme := s.Scheme
	if canon, err := registry.Default().Canonical(s.Scheme); err == nil {
		scheme = canon
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "tetris-shard|v2|w=%s|s=%s|seed=%d|instr=%d|cores=%d|line=%d|engine=%s",
		s.Workload, scheme, s.Seed, s.Instr, s.Cores, s.LineBytes, s.Engine)
	return fmt.Sprintf("%016x", h.Sum64())
}

// String identifies the shard in logs and event streams.
func (s ShardSpec) String() string {
	return fmt.Sprintf("%s/%s/seed%d", s.Workload, s.Scheme, s.Seed)
}

// RunShard executes one shard in-process: the worker's core, also
// usable directly by tests and by a broker running in local mode. The
// cell's system.Config comes from exp.CellConfig, the mapping
// exp.RunFullSystemCtx uses, which is what makes a fleet-assembled
// table byte-identical to a serial tetrisbench sweep. The spec's fields
// are passed as they are: a zero budget or core count gets the
// simulator's defaults, not the harness's.
func RunShard(ctx context.Context, sh ShardSpec) (system.Summary, error) {
	prof, err := workload.ProfileByName(sh.Workload)
	if err != nil {
		return system.Summary{}, err
	}
	schemes, err := exp.ResolveSchemes([]string{sh.Scheme})
	if err != nil {
		return system.Summary{}, err
	}
	par := pcm.DefaultParams()
	if sh.LineBytes > 0 {
		par.LineBytes = sh.LineBytes
	}
	cfg := exp.CellConfig(exp.Options{Params: par, Cores: sh.Cores, InstrBudget: sh.Instr, Seed: sh.Seed})
	res, err := system.RunCtx(ctx, prof, schemes[0].Factory, cfg)
	if err != nil {
		return system.Summary{}, err
	}
	return system.Summarize(res, sh.Seed), nil
}
