// Package units defines the time base shared by every simulated component.
//
// The simulators in this repository mix clock domains whose periods are not
// whole nanoseconds (a 2 GHz core ticks every 0.5 ns, the 400 MHz memory
// bus every 2.5 ns), so the global time base is the picosecond, carried in
// an int64. An int64 of picoseconds overflows after ~106 days of simulated
// time, far beyond any experiment here.
package units

import (
	"fmt"
	"strconv"
	"strings"
)

// Time is an absolute simulation timestamp in picoseconds since the start
// of the simulation.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Convenient duration constants.
const (
	Picosecond  Duration = 1
	Nanosecond  Duration = 1000 * Picosecond
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Add returns the timestamp d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier time u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Nanoseconds returns the duration as a float64 count of nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / float64(Nanosecond) }

// Seconds returns the duration as a float64 count of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String renders a duration with an auto-selected unit, for logs and
// reports.
func (d Duration) String() string {
	switch {
	case d == 0:
		return "0"
	case d%Second == 0:
		return fmt.Sprintf("%ds", d/Second)
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(d)/float64(Microsecond))
	case d >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(d)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(d))
	}
}

// String renders an absolute time like a duration since time zero.
func (t Time) String() string { return Duration(t).String() }

// Nanoseconds builds a Duration from a (possibly fractional) nanosecond
// count. Fractions below a picosecond are truncated.
func Nanoseconds(ns float64) Duration { return Duration(ns * float64(Nanosecond)) }

// ParseDuration parses a human-written simulated duration like "10us",
// "1.5ms", "430ns" or "250000ps". The unit suffix (ps, ns, us, ms, s) is
// required — a bare number would be ambiguous — and the value must be
// positive; fractions below a picosecond are truncated. This mirrors
// time.ParseDuration but for the simulation's picosecond time base (and
// with sub-nanosecond units the standard library lacks).
func ParseDuration(s string) (Duration, error) {
	orig := s
	s = strings.TrimSpace(s)
	var unit Duration
	switch {
	case strings.HasSuffix(s, "ps"):
		unit, s = Picosecond, strings.TrimSuffix(s, "ps")
	case strings.HasSuffix(s, "ns"):
		unit, s = Nanosecond, strings.TrimSuffix(s, "ns")
	case strings.HasSuffix(s, "us"):
		unit, s = Microsecond, strings.TrimSuffix(s, "us")
	case strings.HasSuffix(s, "µs"):
		unit, s = Microsecond, strings.TrimSuffix(s, "µs")
	case strings.HasSuffix(s, "ms"):
		unit, s = Millisecond, strings.TrimSuffix(s, "ms")
	case strings.HasSuffix(s, "s"):
		unit, s = Second, strings.TrimSuffix(s, "s")
	default:
		return 0, fmt.Errorf("units: duration %q needs a unit suffix (ps, ns, us, ms, s)", orig)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad duration %q: %w", orig, err)
	}
	d := Duration(v * float64(unit))
	if d <= 0 {
		return 0, fmt.Errorf("units: duration %q must be positive", orig)
	}
	return d, nil
}

// Clock converts between cycle counts and simulated time for one clock
// domain. The zero value is invalid; build clocks with NewClock.
type Clock struct {
	period Duration
}

// NewClock returns a clock with the given frequency in hertz. It panics on
// non-positive frequencies and on frequencies above 1 THz, which would
// round to a zero-length period.
func NewClock(hz float64) Clock {
	if hz <= 0 {
		panic("units: non-positive clock frequency")
	}
	p := Duration(float64(Second) / hz)
	if p <= 0 {
		panic("units: clock frequency too high for picosecond time base")
	}
	return Clock{period: p}
}

// Period returns the length of one cycle.
func (c Clock) Period() Duration { return c.period }

// Cycles converts a whole number of cycles to a duration.
func (c Clock) Cycles(n int64) Duration { return Duration(n) * c.period }
