package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/workload"
)

// validTrace encodes n records of a real workload into a byte stream.
func validTrace(t testing.TB, cores, n int) []byte {
	t.Helper()
	par := pcm.DefaultParams()
	prof, _ := workload.ProfileByName("vips")
	recs := Generate(prof, cores, 1, par, n)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, cores, par.LineBytes)
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
	return buf.Bytes()
}

// header builds raw header bytes with arbitrary field values.
func header(version, cores uint16, lineBytes uint32) []byte {
	var buf bytes.Buffer
	buf.Write(magic[:])
	binary.Write(&buf, binary.LittleEndian, Header{Version: version, Cores: cores, LineBytes: lineBytes})
	return buf.Bytes()
}

func TestHeaderValidation(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"zero-cores", header(Version, 0, 64), "zero cores"},
		{"zero-line", header(Version, 2, 0), "line size"},
		{"huge-line", header(Version, 2, MaxLineBytes+1), "line size"},
		{"bad-version", header(Version+9, 2, 64), "version"},
		{"truncated-header", magic[:], "header"},
		{"truncated-magic", []byte("TWTR"), "magic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Parse(bytes.NewReader(tc.data))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
			if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("truncation reported as clean EOF: %v", err)
			}
		})
	}
}

// TestTruncationNamesRecord: cutting a valid stream mid-record fails
// with an error naming that record's number, never a silent short read.
func TestTruncationNamesRecord(t *testing.T) {
	data := validTrace(t, 2, 10)
	hdrLen := len(header(Version, 2, 64))
	// Cut the stream at every byte position: a reader must either error
	// with a record number, or stop at a clean EOF having decoded only
	// whole records (the cut fell exactly on a record boundary).
	boundaries := map[int]bool{hdrLen: true}
	for cut := hdrLen + 1; cut < len(data); cut++ {
		hdr, recs, err := Parse(bytes.NewReader(data[:cut]))
		if hdr.Cores == 0 {
			t.Fatalf("cut %d: header rejected: %v", cut, err)
		}
		if err == nil {
			boundaries[cut] = true
			continue
		}
		if !strings.Contains(err.Error(), "record") {
			t.Fatalf("cut %d: error without record position: %v", cut, err)
		}
		wantRec := int64(len(recs) + 1)
		if !strings.Contains(err.Error(), "record "+itoa(wantRec)) {
			t.Fatalf("cut %d: error %q does not name record %d", cut, err, wantRec)
		}
	}
	// Sanity: most cut positions are mid-record (records are > 1 byte).
	if len(boundaries) >= len(data)-hdrLen {
		t.Fatal("every cut decoded cleanly; truncation never detected")
	}
}

func itoa(n int64) string {
	var b [20]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return string(b[i:])
}

func TestBadRecordDiagnostics(t *testing.T) {
	hdr := header(Version, 2, 64)
	t.Run("core-out-of-range", func(t *testing.T) {
		data := append(append([]byte{}, hdr...), 9, 0, 0, 0)
		_, _, err := Parse(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), "record 1") || !strings.Contains(err.Error(), "core 9") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("unknown-kind", func(t *testing.T) {
		data := append(append([]byte{}, hdr...), 0, 7, 0, 0)
		_, _, err := Parse(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), "kind 7") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("varint-overflow", func(t *testing.T) {
		// 10-byte uvarint encoding a value > MaxInt64.
		over := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}
		data := append(append([]byte{}, hdr...), 0, 0)
		data = append(data, over...)
		data = append(data, 0)
		_, _, err := Parse(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Fatalf("err = %v", err)
		}
	})
}

// TestParsePrefixSurvives: a valid prefix of records is returned even
// when a later record is corrupt.
func TestParsePrefixSurvives(t *testing.T) {
	data := validTrace(t, 2, 10)
	corrupt := append(append([]byte{}, data...), 99) // core 99: out of range
	hdr, recs, err := Parse(bytes.NewReader(corrupt))
	if err == nil {
		t.Fatal("corrupt tail not detected")
	}
	if hdr.Cores != 2 || len(recs) != 10 {
		t.Fatalf("prefix lost: hdr=%+v recs=%d", hdr, len(recs))
	}
	if !strings.Contains(err.Error(), "record 11") {
		t.Errorf("err = %v, want record 11", err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	data := validTrace(t, 3, 50)
	hdr, recs, err := Parse(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Cores != 3 || len(recs) != 50 {
		t.Fatalf("hdr=%+v recs=%d", hdr, len(recs))
	}
}

// TestParseReportsSourceError: a source that fails mid-record is
// reported as its own error, positioned at the record it cut short, not
// as a truncated trace; the whole records before it survive.
func TestParseReportsSourceError(t *testing.T) {
	data := validTrace(t, 2, 10)
	boom := errors.New("disk on fire")
	src := io.MultiReader(bytes.NewReader(data[:len(data)-3]), iotest.ErrReader(boom))
	_, recs, err := Parse(src)
	if !errors.Is(err, boom) || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want the source's error", err)
	}
	if len(recs) != 9 || !strings.Contains(err.Error(), "record 10") {
		t.Fatalf("%d records, err %v; want 9 and a mention of record 10", len(recs), err)
	}
}

// FuzzParseTrace: the decoder must never panic, never allocate
// unboundedly, and always either decode whole valid records or fail
// with a record-numbered error. Its two buffer-sizing branches must
// agree: Parse over a bytes.Reader, whose Len sizes the buffer up
// front, and over a source fed one byte per read, which hides Len and
// grows the buffer, give the same header, the same records field for
// field and byte for byte, and the same error text.
func FuzzParseTrace(f *testing.F) {
	f.Add(validTrace(f, 2, 5))
	f.Add(header(Version, 2, 64))
	f.Add(header(Version, 0, 64))
	f.Add(header(Version, 2, 1<<31))
	f.Add([]byte("TWTRACE1 garbage"))
	f.Add([]byte{})
	f.Add(varintOverflowTrace())
	f.Add(varintTruncatedTrace())

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, recs, err := Parse(bytes.NewReader(data))
		checkUnsizedAgrees(t, data, hdr, recs, err)
		if err != nil {
			if len(recs) > 0 && !strings.Contains(err.Error(), "record ") {
				t.Fatalf("record-level error without position: %v", err)
			}
			return
		}
		for i, rec := range recs {
			if rec.Core < 0 || rec.Core >= int(hdr.Cores) {
				t.Fatalf("record %d: core %d of %d", i, rec.Core, hdr.Cores)
			}
			if rec.Op.Think < 0 || rec.Op.Addr < 0 {
				t.Fatalf("record %d: negative field after decode: %+v", i, rec.Op)
			}
			if rec.Op.Write && len(rec.Op.Data) != int(hdr.LineBytes) {
				t.Fatalf("record %d: payload %d bytes, line is %d", i, len(rec.Op.Data), hdr.LineBytes)
			}
		}
	})
}

// checkUnsizedAgrees parses data through a source that returns one
// byte per read, and fails unless it yields exactly what Parse gave over
// a bytes.Reader.
func checkUnsizedAgrees(t *testing.T, data []byte, hdr Header, recs []Record, parseErr error) {
	t.Helper()
	gotHdr, got, err := Parse(iotest.OneByteReader(bytes.NewReader(data)))
	if gotHdr != hdr || fmt.Sprint(err) != fmt.Sprint(parseErr) {
		t.Fatalf("one byte per read: header %+v, error %v; sized: header %+v, error %v", gotHdr, err, hdr, parseErr)
	}
	if len(got) != len(recs) {
		t.Fatalf("one byte per read decoded %d records, sized %d", len(got), len(recs))
	}
	for i, rec := range got {
		want := recs[i]
		if rec.Core != want.Core || rec.Op.Think != want.Op.Think || rec.Op.Addr != want.Op.Addr ||
			rec.Op.Write != want.Op.Write || !bytes.Equal(rec.Op.Data, want.Op.Data) {
			t.Fatalf("record %d: one byte per read %+v, sized %+v", i+1, rec, want)
		}
	}
}

// varintOverflowTrace holds one read whose think is an 11-byte varint:
// ten continuation bytes, more than 64 bits can hold.
func varintOverflowTrace() []byte {
	data := append(header(Version, 1, 64), 0, kindRead)
	data = append(data, bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64)...)
	return append(data, 0x01, 0x00)
}

// varintTruncatedTrace ends inside a read record's think varint.
func varintTruncatedTrace() []byte {
	return append(header(Version, 1, 64), 0, kindRead, 0x80, 0x80)
}

// TestVarintOverflowIsNotTruncation: a varint too long for 64 bits and
// a varint cut off by the end of the stream are different faults, and
// Parse reports them as such whether or not it can size its buffer.
// Ten continuation bytes ending the stream are an overflow, as
// binary.ReadUvarint reports them.
func TestVarintOverflowIsNotTruncation(t *testing.T) {
	tenAtEnd := append(header(Version, 1, 64), 0, kindRead)
	tenAtEnd = append(tenAtEnd, bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64)...)
	cases := []struct {
		name      string
		data      []byte
		truncated bool
		want      string
	}{
		{"eleven-bytes", varintOverflowTrace(), false, "trace: record 1: think: binary: varint overflows a 64-bit integer"},
		{"ten-continuations-at-end", tenAtEnd, false, "trace: record 1: think: binary: varint overflows a 64-bit integer"},
		{"cut-at-end", varintTruncatedTrace(), true, "trace: record 1: truncated think: unexpected EOF"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, sized := Parse(bytes.NewReader(tc.data))
			_, _, unsized := Parse(iotest.OneByteReader(bytes.NewReader(tc.data)))
			for _, err := range []error{sized, unsized} {
				if err == nil || err.Error() != tc.want {
					t.Fatalf("err = %v, want %q", err, tc.want)
				}
				if errors.Is(err, io.ErrUnexpectedEOF) != tc.truncated {
					t.Fatalf("err %v: errors.Is(io.ErrUnexpectedEOF) = %v, want %v", err, !tc.truncated, tc.truncated)
				}
			}
		})
	}
}
