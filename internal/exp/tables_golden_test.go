package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tetriswrite/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

const tablesGolden = "testdata/tables_golden.txt"

// goldenOptions is the reduced scale the table golden is recorded at:
// small enough to run in seconds, large enough that every figure keeps
// the paper's shape and the certificate passes.
func goldenOptions() Options {
	return Options{InstrBudget: 100_000, Writes: 200, Seed: 1}
}

// renderTables renders every table `tetrisbench -all` prints except the
// two static texts (Table II and Figure 4), then the seed spread over
// seeds 1 and 2 and the reproduction certificate in tetrisbench's
// -check format.
func renderTables(t *testing.T, opt Options) string {
	t.Helper()
	var b strings.Builder
	add := func(tb *stats.Table, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(tb.String())
		b.WriteByte('\n')
	}
	add(Table3(opt), nil)
	add(Figure3(opt), nil)
	add(Figure10(opt), nil)
	fr, err := RunFullSystem(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []*stats.Table{
		fr.Figure11(), fr.Figure12(), fr.Figure13(), fr.Figure14(),
		fr.EnergyTable(), fr.TailLatency(),
		LineSizeSweep(opt), BudgetSweep(opt),
	} {
		add(tb, nil)
	}
	add(EnduranceTable(opt))
	add(FaultToleranceTable(opt))
	add(SeedSpread(opt, []int64{1, 2}))
	checks, err := CheckShapes(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range checks {
		status := "PASS"
		if !r.OK {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "%s  %-55s %s\n", status, r.Name, r.Detail)
	}
	return b.String()
}

// TestTablesGolden pins the rendered paper tables and the certificate
// at reduced scale, with the full-system grid run serially and on four
// workers against the same file. Any change to a number the harness
// prints shows up here as a reviewed diff; rewrite the file with
// -update only for an intended behaviour change.
func TestTablesGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*Options)
	}{
		{"serial", func(o *Options) { o.Sequential = true }},
		{"parallel4", func(o *Options) { o.Parallel = 4 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			opt := goldenOptions()
			c.set(&opt)
			got := renderTables(t, opt)
			if *update && opt.Sequential {
				if err := os.MkdirAll(filepath.Dir(tablesGolden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(tablesGolden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(tablesGolden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("rendered tables differ from %s:\n%s", tablesGolden, lineDiff(string(want), got))
			}
		})
	}
}

// lineDiff lists the lines that differ between two renderings.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %q\n  got  %q\n", i+1, wl, gl)
		}
	}
	return b.String()
}
