package main

import (
	"encoding/json"
	"io"

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/system"
)

// jsonReport is the machine-readable form of the text report, for
// scripting experiments over pcmsim without scraping its output. Times
// are picoseconds (the simulation's native base) so the values stay
// integral and exact.
type jsonReport struct {
	Workload      string  `json:"workload"`
	Scheme        string  `json:"scheme"`
	RunningTimePs int64   `json:"running_time_ps"`
	IPC           float64 `json:"ipc"`
	ReadLatencyPs int64   `json:"read_latency_ps"`
	WriteLatPs    int64   `json:"write_latency_ps"`
	WriteUnits    float64 `json:"write_units_per_write"`
	BaselineUnits int     `json:"write_units_baseline"`
	Energy        float64 `json:"energy_set_current_ns"`

	Reads          int64 `json:"reads"`
	ForwardedReads int64 `json:"forwarded_reads"`
	Writes         int64 `json:"writes"`
	Coalesced      int64 `json:"coalesced"`
	Drains         int64 `json:"drains"`
	BitSets        int64 `json:"bit_sets"`
	BitResets      int64 `json:"bit_resets"`

	Fault *jsonFault     `json:"fault,omitempty"`
	Guard *jsonGuard     `json:"guard,omitempty"`
	Tele  *jsonTelemetry `json:"telemetry,omitempty"`
}

type jsonGuard struct {
	WritePlans  int64 `json:"write_plans"`
	QueueChecks int64 `json:"queue_checks"`
	DeepReplays int64 `json:"deep_replays,omitempty"`
}

type jsonFault struct {
	Verifies          int64 `json:"verifies"`
	Retries           int64 `json:"retries"`
	TransientFailures int64 `json:"transient_failures"`
	StuckCells        int64 `json:"stuck_cells"`
	HardErrors        int64 `json:"hard_errors"`
	RemappedLines     int64 `json:"remapped_lines,omitempty"`
	SparesLeft        int   `json:"spares_left,omitempty"`
}

type jsonTelemetry struct {
	Epochs  int                `json:"epochs"`
	EpochPs int64              `json:"epoch_ps"`
	Dropped int                `json:"dropped_epochs,omitempty"`
	Final   map[string]float64 `json:"final"` // last sample of every series
}

// printJSON writes the report as a single indented JSON object.
// encoding/json sorts map keys, so the output is deterministic.
func printJSON(w io.Writer, res system.Result, par pcm.Params) error {
	rep := jsonReport{
		Workload:      res.Workload,
		Scheme:        res.Scheme,
		RunningTimePs: int64(res.RunningTime),
		IPC:           res.IPC,
		ReadLatencyPs: int64(res.ReadLatency),
		WriteLatPs:    int64(res.WriteLatency),
		WriteUnits:    res.WriteUnits,
		BaselineUnits: par.DataUnits(),
		Energy:        res.Energy,

		Reads:          res.Ctrl.Reads,
		ForwardedReads: res.Ctrl.ForwardedReads,
		Writes:         res.Ctrl.Writes,
		Coalesced:      res.Ctrl.Coalesced,
		Drains:         res.Ctrl.Drains,
		BitSets:        res.Ctrl.BitSets,
		BitResets:      res.Ctrl.BitResets,
	}
	if res.Fault != nil {
		rep.Fault = &jsonFault{
			Verifies:          res.Ctrl.Verifies,
			Retries:           res.Ctrl.Retries,
			TransientFailures: res.Fault.TransientFailures,
			StuckCells:        res.Fault.StuckCells,
			HardErrors:        res.Ctrl.HardErrors,
		}
		if res.Spare != nil {
			rep.Fault.RemappedLines = res.Spare.RemappedLines
			rep.Fault.SparesLeft = res.Spare.SparesLeft
		}
	}
	if g := res.Guard; g != nil {
		rep.Guard = &jsonGuard{
			WritePlans:  g.WritePlans,
			QueueChecks: g.QueueChecks,
			DeepReplays: g.DeepReplays,
		}
	}
	if s := res.Telemetry; s != nil {
		final := make(map[string]float64, len(s.SeriesNames()))
		for _, name := range s.SeriesNames() {
			if vals := s.Series(name); len(vals) > 0 {
				final[name] = vals[len(vals)-1]
			}
		}
		rep.Tele = &jsonTelemetry{
			Epochs:  s.Epochs(),
			EpochPs: int64(s.EpochDuration()),
			Dropped: s.Dropped(),
			Final:   final,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
