package units

import (
	"testing"
)

func TestDurationConstants(t *testing.T) {
	if Nanosecond != 1000 {
		t.Errorf("Nanosecond = %d ps, want 1000", Nanosecond)
	}
	if Second != 1e12 {
		t.Errorf("Second = %d ps, want 1e12", Second)
	}
}

func TestAddSub(t *testing.T) {
	var t0 Time = 100
	t1 := t0.Add(50 * Picosecond)
	if t1 != 150 {
		t.Errorf("Add = %d, want 150", t1)
	}
	if d := t1.Sub(t0); d != 50 {
		t.Errorf("Sub = %d, want 50", d)
	}
}

func TestNanoseconds(t *testing.T) {
	if d := Nanoseconds(2.5); d != 2500 {
		t.Errorf("Nanoseconds(2.5) = %d ps, want 2500", d)
	}
	if got := (2500 * Picosecond).Nanoseconds(); got != 2.5 {
		t.Errorf("Nanoseconds() = %v, want 2.5", got)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0"},
		{500, "500ps"},
		{1500, "1.500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{Second, "1s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestClockPeriods(t *testing.T) {
	cpu := NewClock(2e9) // 2 GHz
	if cpu.Period() != 500 {
		t.Errorf("2GHz period = %d ps, want 500", cpu.Period())
	}
	bus := NewClock(400e6) // 400 MHz
	if bus.Period() != 2500 {
		t.Errorf("400MHz period = %d ps, want 2500", bus.Period())
	}
	if cpu.Cycles(4) != 2000 {
		t.Errorf("Cycles(4) = %d, want 2000", cpu.Cycles(4))
	}
}

func TestClockPanics(t *testing.T) {
	for _, hz := range []float64{0, -1, 2e12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewClock(%v) did not panic", hz)
				}
			}()
			NewClock(hz)
		}()
	}
}

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want Duration
	}{
		{"10us", 10 * Microsecond},
		{"1.5ms", 1500 * Microsecond},
		{"430ns", 430 * Nanosecond},
		{"53ns", 53 * Nanosecond},
		{"250000ps", 250 * Nanosecond},
		{"2s", 2 * Second},
		{"0.5us", 500 * Nanosecond},
		{" 7us ", 7 * Microsecond},
		{"3µs", 3 * Microsecond},
	}
	for _, c := range cases {
		got, err := ParseDuration(c.in)
		if err != nil {
			t.Errorf("ParseDuration(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseDuration(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "10", "us", "-10us", "0us", "10xs", "ten us", "1e999ms"} {
		if d, err := ParseDuration(bad); err == nil {
			t.Errorf("ParseDuration(%q) = %v, want error", bad, d)
		}
	}
}

// Round-trip: anything Duration.String prints for exact-unit values parses
// back to the same duration.
func TestParseDurationRoundTrip(t *testing.T) {
	for _, d := range []Duration{430 * Nanosecond, 10 * Microsecond, 2 * Second, 53 * Nanosecond} {
		got, err := ParseDuration(d.String())
		if err != nil {
			t.Fatalf("ParseDuration(%q): %v", d.String(), err)
		}
		if got != d {
			t.Errorf("round trip %v -> %q -> %v", d, d.String(), got)
		}
	}
}
