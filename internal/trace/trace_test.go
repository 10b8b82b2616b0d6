package trace

import (
	"bytes"
	"io"
	"testing"

	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	par := pcm.DefaultParams()
	prof, _ := workload.ProfileByName("ferret")
	recs := Generate(prof, 4, 42, par, 500)
	if len(recs) != 500 {
		t.Fatalf("generated %d records, want 500", len(recs))
	}

	var buf bytes.Buffer
	w, err := NewWriter(&buf, 4, par.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 500 {
		t.Errorf("Count = %d", w.Count())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h := r.Header(); h.Cores != 4 || h.LineBytes != 64 || h.Version != Version {
		t.Errorf("header = %+v", h)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		a, b := recs[i], got[i]
		if a.Core != b.Core || a.Op.Write != b.Op.Write || a.Op.Addr != b.Op.Addr || a.Op.Think != b.Op.Think {
			t.Fatalf("record %d differs: %+v vs %+v", i, a, b)
		}
		if a.Op.Write && bitutil.HammingBytes(a.Op.Data, b.Op.Data) != 0 {
			t.Fatalf("record %d payload differs", i)
		}
	}
}

func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, 0, 64); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := NewWriter(&buf, 4, 0); err == nil {
		t.Error("zero line size accepted")
	}
	w, _ := NewWriter(&buf, 2, 64)
	if err := w.Write(Record{Core: 5}); err == nil {
		t.Error("out-of-range core accepted")
	}
	if err := w.Write(Record{Core: 0, Op: workload.Op{Think: -1}}); err == nil {
		t.Error("negative think accepted")
	}
	if err := w.Write(Record{Core: 0, Op: workload.Op{Write: true, Data: []byte{1}}}); err == nil {
		t.Error("short payload accepted")
	}
	w.Flush()
	if err := w.Write(Record{Core: 0}); err == nil {
		t.Error("write after Flush accepted")
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a trace file at all"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestReaderTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 1, 64)
	data := make([]byte, 64)
	w.Write(Record{Op: workload.Op{Write: true, Think: 5, Addr: 9, Data: data}})
	w.Flush()
	full := buf.Bytes()
	// Chop mid-payload.
	r, err := NewReader(bytes.NewReader(full[:len(full)-10]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("truncated payload gave err=%v, want a real error", err)
	}
}

func TestCoreSource(t *testing.T) {
	recs := []Record{
		{Core: 0, Op: workload.Op{Addr: 1, Think: 10}},
		{Core: 1, Op: workload.Op{Addr: 2, Think: 20}},
		{Core: 0, Op: workload.Op{Addr: 3, Think: 30}},
	}
	s := NewCoreSource(recs, 0)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if op := s.Next(); op.Addr != 1 {
		t.Errorf("first op addr %d", op.Addr)
	}
	if op := s.Next(); op.Addr != 3 {
		t.Errorf("second op addr %d", op.Addr)
	}
	// Exhausted: idles with a huge think.
	if op := s.Next(); op.Think < 1<<30 {
		t.Errorf("exhausted source should idle, got think %d", op.Think)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	par := pcm.DefaultParams()
	prof, _ := workload.ProfileByName("vips")
	a := Generate(prof, 2, 9, par, 100)
	b := Generate(prof, 2, 9, par, 100)
	for i := range a {
		if a[i].Op.Addr != b[i].Op.Addr || a[i].Op.Think != b[i].Op.Think {
			t.Fatalf("record %d nondeterministic", i)
		}
	}
}

// TestPayloadsDoNotAlias pins the slab-carved payloads: every write
// record's Data is capacity-capped at the line size, so appending to one
// record's payload reallocates it and leaves the next record's payload
// untouched.
func TestPayloadsDoNotAlias(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, 8)
		if err := w.Write(Record{Op: workload.Op{Addr: pcm.LineAddr(i), Write: true, Data: data}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("parsed %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if len(r.Op.Data) != 8 || cap(r.Op.Data) != 8 {
			t.Fatalf("record %d payload len %d cap %d, want 8 and 8", i, len(r.Op.Data), cap(r.Op.Data))
		}
	}
	grown := append(recs[0].Op.Data, 0xEE, 0xEE)
	grown[0] = 0xEE
	for i, r := range recs {
		want := bytes.Repeat([]byte{byte(i + 1)}, 8)
		if !bytes.Equal(r.Op.Data, want) {
			t.Fatalf("record %d payload %v after appending to record 0, want %v", i, r.Op.Data, want)
		}
	}
}
