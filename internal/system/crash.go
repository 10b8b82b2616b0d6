package system

import (
	"fmt"

	"tetriswrite/internal/crash"
	"tetriswrite/internal/memctrl"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/telemetry"
)

// attachCrash builds, binds and attaches the power-failure injector
// when Config.Crash is armed. It returns nil with no side effects for
// the zero config, keeping the zero-crash run bit-identical to the
// seed. Config.Validate has already rejected crash injection together
// with the fault model and write pausing.
func attachCrash(eng *sim.Engine, dev *pcm.Device, ctrl *memctrl.Controller, cfg Config) (*crash.Injector, error) {
	if !cfg.Crash.Enabled() {
		return nil, nil
	}
	cinj, err := crash.New(cfg.Crash, cfg.Params)
	if err != nil {
		return nil, err
	}
	cinj.Bind(eng, dev, ctrl.Schemes())
	ctrl.SetCrash(cinj)
	return cinj, nil
}

// Recover replays the surviving intent log against the crashed image:
// per-scheme torn-state classification, flip-tag re-anchoring, and a
// repair write per non-clean line, after which every intent line holds
// its intended data. The caller reaches the Image by unwrapping the
// aborted run's error to *crash.CutError. To resume the run, build a
// fresh engine and hand the image's device and scheme instances to
// memctrl.NewWithSchemes, then replay the unacknowledged writes.
func Recover(img *crash.Image) (*crash.Report, error) {
	if img == nil {
		return nil, fmt.Errorf("system: Recover with no crash image")
	}
	return crash.Recover(img)
}

// registerCrashMetrics registers the injector's live crash.* counters.
func registerCrashMetrics(reg *telemetry.Registry, cinj *crash.Injector) {
	type series struct {
		name, help string
	}
	var names []series
	cinj.Stats(func(name string, _ float64) {
		names = append(names, series{name, "crash substrate: " + name})
	})
	for _, s := range names {
		name := s.name
		reg.CounterFunc(name, s.help, func() float64 {
			var v float64
			cinj.Stats(func(n string, val float64) {
				if n == name {
					v = val
				}
			})
			return v
		})
	}
}
