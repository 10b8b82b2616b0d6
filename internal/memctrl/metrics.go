package memctrl

import (
	"fmt"

	"tetriswrite/internal/schemes"
	"tetriswrite/internal/telemetry"
	"tetriswrite/internal/units"
)

// RegisterMetrics exposes the controller's activity to the telemetry
// sampler: queue occupancy, drain activity, scheduling outcomes and the
// verify loop under the memctrl.* namespace, and the programming-pulse /
// power-budget view under power.*. Everything is polled from the
// controller's own counters at epoch boundaries — registration adds no
// work to the request path, and a run without a registry behaves
// bit-identically.
func (c *Controller) RegisterMetrics(reg *telemetry.Registry) {
	// Queue state: the signals behind the paper's write-drain behaviour
	// (read-dominant workloads barely drain; write-heavy ones storm).
	reg.GaugeFunc("memctrl.read_queue_depth", "read queue occupancy", func() float64 {
		return float64(c.nreadQ)
	})
	reg.GaugeFunc("memctrl.write_queue_depth", "write queue occupancy", func() float64 {
		return float64(len(c.writeQ))
	})
	reg.GaugeFunc("memctrl.draining", "1 while a write drain is in progress", func() float64 {
		if c.draining {
			return 1
		}
		return 0
	})
	reg.CounterFunc("memctrl.drains", "write drains started (write queue filled)", func() float64 {
		return float64(c.stats.Drains)
	})
	reg.CounterFunc("memctrl.drain_exits", "write drains ended at the low-water mark", func() float64 {
		return float64(c.stats.DrainExits)
	})

	// Request flow.
	reg.CounterFunc("memctrl.reads", "reads accepted", func() float64 { return float64(c.stats.Reads) })
	reg.CounterFunc("memctrl.writes", "writes accepted", func() float64 { return float64(c.stats.Writes) })
	reg.CounterFunc("memctrl.coalesced", "writes merged into a queued write", func() float64 {
		return float64(c.stats.Coalesced)
	})
	reg.CounterFunc("memctrl.forwarded_reads", "reads served from the write queue", func() float64 {
		return float64(c.stats.ForwardedReads)
	})
	reg.CounterFunc("memctrl.stall_rejects", "submissions rejected on a full queue", func() float64 {
		return float64(c.stats.StallRejects)
	})
	// This PCM model has no row buffers (every access opens the array),
	// so the closest analog of a row-buffer hit rate is the fraction of
	// reads short-circuited by the write queue.
	reg.GaugeFunc("memctrl.forward_hit_rate", "fraction of reads served from the write queue (row-buffer-hit analog)", func() float64 {
		if c.stats.Reads == 0 {
			return 0
		}
		return float64(c.stats.ForwardedReads) / float64(c.stats.Reads)
	})

	// Write-verify loop (PR 1); all flat zero on an ideal device.
	reg.CounterFunc("memctrl.verifies", "verify read-backs performed", func() float64 {
		return float64(c.stats.Verifies)
	})
	reg.CounterFunc("memctrl.retries", "re-pulse rounds after failed verifies", func() float64 {
		return float64(c.stats.Retries)
	})
	reg.CounterFunc("memctrl.hard_errors", "writes escalated past the retry budget", func() float64 {
		return float64(c.stats.HardErrors)
	})

	// Bank occupancy.
	reg.GaugeFunc("memctrl.bank_util_mean", "mean bank array occupancy fraction", func() float64 {
		utils := c.BankUtilization()
		var sum float64
		for _, u := range utils {
			sum += u
		}
		if len(utils) == 0 {
			return 0
		}
		return sum / float64(len(utils))
	})
	for i := range c.banks {
		i := i
		reg.GaugeFunc(fmt.Sprintf("memctrl.bank%d.util", i), "bank array occupancy fraction", func() float64 {
			return c.BankUtilization()[i]
		})
	}

	// Scheme-exported counters (schemes.StatProvider), summed across the
	// per-bank scheme instances: the remap decorator's migration
	// counters. The series set is discovered from bank 0 at registration
	// time — every bank runs the same factory, so all banks emit the
	// same names.
	if sp0, ok := c.banks[0].scheme.(schemes.StatProvider); ok {
		var names []string
		seen := map[string]bool{}
		sp0.SchemeStats(func(name string, _ float64) {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		})
		for _, name := range names {
			name := name
			reg.GaugeFunc(name, "scheme counter, summed across banks", func() float64 {
				var sum float64
				for _, b := range c.banks {
					if sp, ok := b.scheme.(schemes.StatProvider); ok {
						sp.SchemeStats(func(n string, v float64) {
							if n == name {
								sum += v
							}
						})
					}
				}
				return sum
			})
		}
	}

	// Power layer: the pulse mix and the charge-pump budget view. The
	// behavioral model stripes every line write uniformly across a
	// bank's chips, so the per-chip utilization equals the bank/rank
	// fraction reported here; per-chip peaks live in the structural
	// model in internal/tetris's tests.
	reg.CounterFunc("power.write_units", "serialized write units issued (Figure 10 numerator)", func() float64 {
		return c.stats.WriteUnits
	})
	reg.CounterFunc("power.set_pulses", "SET pulses driven", func() float64 { return float64(c.stats.BitSets) })
	reg.CounterFunc("power.reset_pulses", "RESET pulses driven", func() float64 { return float64(c.stats.BitResets) })
	reg.GaugeFunc("power.set_fraction", "SET share of all pulses (content drift signal)", func() float64 {
		total := c.stats.BitSets + c.stats.BitResets
		if total == 0 {
			return 0
		}
		return float64(c.stats.BitSets) / float64(total)
	})
	reg.GaugeFunc("power.budget_util", "charge-pump budget utilization: pulse current-time integral over elapsed time x rank budget", func() float64 {
		return c.budgetUtilization()
	})
}

// budgetUtilization integrates the current-time product of every pulse
// driven so far (SETs at CurrentSet for TSet, RESETs at CurrentReset for
// TReset) and divides by the rank's total budget over elapsed simulated
// time — the time-averaged fraction of the charge pumps' capacity the
// run actually used.
func (c *Controller) budgetUtilization() float64 {
	now := units.Duration(c.eng.Now())
	if now <= 0 {
		return 0
	}
	integral := float64(c.stats.BitSets)*float64(c.par.CurrentSet)*float64(c.par.TSet) +
		float64(c.stats.BitResets)*float64(c.par.CurrentReset)*float64(c.par.TReset)
	capacity := float64(c.par.BankBudget()) * float64(c.par.NumBanks) * float64(now)
	if capacity <= 0 {
		return 0
	}
	return integral / capacity
}
