package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGenerateAndDump(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.trace")
	var out, errb bytes.Buffer
	if err := run([]string{"-workload", "dedup", "-cores", "2", "-ops", "100",
		"-seed", "5", "-o", path}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errb.String(), "wrote 100 records") {
		t.Errorf("status line missing: %s", errb.String())
	}

	out.Reset()
	if err := run([]string{"-dump", path}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	dump := out.String()
	if !strings.Contains(dump, "# trace v1, 2 cores, 64 B lines") {
		t.Errorf("dump header wrong:\n%s", dump)
	}
	lines := strings.Count(dump, "\n")
	if lines != 101 { // header + 100 records
		t.Errorf("dump has %d lines, want 101", lines)
	}
	if !strings.Contains(dump, "core=0") || !strings.Contains(dump, "core=1") {
		t.Error("dump missing per-core records")
	}
}

func TestGenerateToStdout(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-ops", "10"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "TWTRACE1") {
		t.Error("stdout stream does not start with the trace magic")
	}
}

func TestErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-workload", "bogus"}, &out, &errb); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run([]string{"-dump", "/nonexistent/file"}, &out, &errb); err == nil {
		t.Error("missing dump file accepted")
	}
	if err := run([]string{"-nope"}, &out, &errb); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestDumpTruncated: a trace cut mid-record dumps its header and every
// whole record before the cut, then fails naming the cut record.
func TestDumpTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.trace")
	var out, errb bytes.Buffer
	if err := run([]string{"-ops", "20", "-cores", "1", "-o", path}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err = run([]string{"-dump", path}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "record 20") {
		t.Fatalf("err = %v, want one naming record 20", err)
	}
	if lines := strings.Count(out.String(), "\n"); lines != 20 { // header + 19 records
		t.Errorf("dump has %d lines before the error, want 20", lines)
	}
}
