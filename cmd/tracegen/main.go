// Command tracegen emits binary memory traces from the synthetic PARSEC
// workload generators, for replay with pcmsim -trace or external
// analysis.
//
// Usage:
//
//	tracegen -workload ferret -ops 100000 -o ferret.trace
//	tracegen -dump ferret.trace | head
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/trace"
	"tetriswrite/internal/version"
	"tetriswrite/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
}

// run executes the generator with the given arguments; separated from
// main for testability.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl      = fs.String("workload", "vips", "workload profile")
		cores   = fs.Int("cores", 4, "number of cores")
		ops     = fs.Int("ops", 100_000, "operations to emit")
		seed    = fs.Int64("seed", 1, "generator seed")
		out     = fs.String("o", "", "output file (default stdout)")
		dump    = fs.String("dump", "", "dump a trace file as text instead of generating")
		showVer = fs.Bool("version", false, "print build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVer {
		fmt.Fprintln(stdout, version.String("tracegen"))
		return nil
	}

	if *dump != "" {
		return dumpTrace(stdout, *dump)
	}

	prof, err := workload.ProfileByName(*wl)
	if err != nil {
		return err
	}
	par := pcm.DefaultParams()
	recs := trace.Generate(prof, *cores, *seed, par, *ops)

	var sink io.Writer = stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		sink = f
	}
	w, err := trace.NewWriter(sink, *cores, par.LineBytes)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "tracegen: wrote %d records (%s, %d cores, seed %d)\n",
		w.Count(), prof.Name, *cores, *seed)
	return nil
}

func dumpTrace(stdout io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	hdr, recs, err := trace.Parse(f)
	if hdr.Cores == 0 {
		return err // the header itself is bad
	}
	fmt.Fprintf(stdout, "# trace v%d, %d cores, %d B lines\n", hdr.Version, hdr.Cores, hdr.LineBytes)
	for _, rec := range recs {
		kind := "R"
		if rec.Op.Write {
			kind = "W"
		}
		fmt.Fprintf(stdout, "core=%d %s addr=%d think=%d\n", rec.Core, kind, rec.Op.Addr, rec.Op.Think)
	}
	return err
}
