package system

import (
	"tetriswrite/internal/cpu"
	"tetriswrite/internal/fault"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/telemetry"
	"tetriswrite/internal/units"
)

// attachTelemetry builds the run's registry, registers every layer the
// platform assembled (registration order is the exporters' emission
// order: cpu, cache, memctrl+power, pcm, wearlevel, fault) and starts
// the epoch sampler. Called only when cfg.Epoch > 0: a run without
// telemetry allocates nothing and replays bit-identically.
func (p *platform) attachTelemetry(cfg Config) {
	reg := telemetry.NewRegistry()
	registerCoreMetrics(reg, p.eng, cpuClock, p.cores)
	if p.hier != nil {
		p.hier.RegisterMetrics(reg)
	}
	p.ctrl.RegisterMetrics(reg)
	p.dev.RegisterMetrics(reg)
	p.dev.RegisterStoreMetrics(reg)
	if p.remap != nil {
		p.remap.RegisterMetrics(reg)
	}
	if p.inj != nil {
		registerFaultMetrics(reg, p.inj, p.spare)
	}
	if p.crash != nil {
		registerCrashMetrics(reg, p.crash)
	}
	// Engine queue depth: the one signal that distinguishes a simulation
	// falling behind (depth growing epoch over epoch) from one that is
	// simply long. Registered last so existing exporter column order is
	// unchanged.
	reg.GaugeFunc("sim.pending_events", "events waiting in the engine queue", func() float64 {
		return float64(p.eng.Pending())
	})
	p.sampler = telemetry.NewSampler(p.eng, reg, cfg.Epoch, telemetry.DefaultRingSize)
	p.sampler.Start()
}

// registerCoreMetrics registers cpu.* aggregates over all cores: retired
// instructions, memory traffic, stall time and the summed IPC the
// paper's Figure 13 reports.
func registerCoreMetrics(reg *telemetry.Registry, eng *sim.Engine, clock units.Clock, cores []*cpu.Core) {
	sum := func(f func(cpu.Stats) float64) func() float64 {
		return func() float64 {
			var total float64
			for _, c := range cores {
				total += f(c.Stats())
			}
			return total
		}
	}
	reg.CounterFunc("cpu.retired", "instructions retired across cores",
		sum(func(s cpu.Stats) float64 { return float64(s.Retired) }))
	reg.CounterFunc("cpu.reads", "memory reads issued across cores",
		sum(func(s cpu.Stats) float64 { return float64(s.Reads) }))
	reg.CounterFunc("cpu.writes", "memory writes issued across cores",
		sum(func(s cpu.Stats) float64 { return float64(s.Writes) }))
	reg.CounterFunc("cpu.read_stall_ns", "time blocked on memory reads, all cores",
		sum(func(s cpu.Stats) float64 { return s.ReadStall.Nanoseconds() }))
	reg.CounterFunc("cpu.write_stall_ns", "time blocked on a full write queue, all cores",
		sum(func(s cpu.Stats) float64 { return s.WriteStall.Nanoseconds() }))
	reg.GaugeFunc("cpu.ipc", "summed per-core IPC so far", func() float64 {
		var total float64
		for _, c := range cores {
			total += c.Stats().IPC(clock, eng.Now())
		}
		return total
	})
	reg.GaugeFunc("cpu.finished_cores", "cores that retired their budget", func() float64 {
		var n float64
		for _, c := range cores {
			if c.Stats().Finished {
				n++
			}
		}
		return n
	})
}

// registerFaultMetrics registers the fault injector and (when present)
// the spare remapper under fault.* / spare.*.
func registerFaultMetrics(reg *telemetry.Registry, inj *fault.Injector, spare *fault.SpareRemapper) {
	reg.CounterFunc("fault.transient_failures", "pulses that failed transiently", func() float64 {
		return float64(inj.Stats().TransientFailures)
	})
	reg.CounterFunc("fault.stuck_cells", "cells permanently stuck (wear-out)", func() float64 {
		return float64(inj.Stats().StuckCells)
	})
	if spare == nil {
		return
	}
	reg.CounterFunc("spare.remapped_lines", "hard-error lines redirected to spares", func() float64 {
		return float64(spare.Stats().RemappedLines)
	})
	reg.GaugeFunc("spare.spares_left", "spare slots still available", func() float64 {
		return float64(spare.Stats().SparesLeft)
	})
	reg.CounterFunc("spare.exhausted", "hard errors dropped with no spare left", func() float64 {
		return float64(spare.Stats().Exhausted)
	})
}
