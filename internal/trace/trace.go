// Package trace defines the binary memory-trace format of the tool
// chain: cmd/tracegen emits traces from the synthetic workloads, and the
// simulators can replay them instead of generating operations on the fly
// — which pins a workload exactly (for cross-machine reproducibility or
// external trace import) rather than relying on seed stability.
//
// Format: a 16-byte header ("TWTRACE1", version uint16, cores uint16,
// line bytes uint32), then length-prefixed records:
//
//	record := core uint8, kind uint8, think varint, addr varint, [payload]
//
// kind 0 is a read; kind 1 is a write followed by LineBytes of payload.
// Multi-core traces interleave records in generation order; CoreSource
// replays one core's records.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/workload"
)

// magic identifies a trace stream.
var magic = [8]byte{'T', 'W', 'T', 'R', 'A', 'C', 'E', '1'}

// Version is the current format version.
const Version = 1

// MaxLineBytes bounds the header's line size on ingestion. The header
// field is a uint32, so without a bound a corrupt or hostile stream
// could demand a multi-gigabyte allocation per write record; no real
// memory line is anywhere near a megabyte.
const MaxLineBytes = 1 << 20

// Header describes a trace stream.
type Header struct {
	Version   uint16
	Cores     uint16
	LineBytes uint32
}

// Record is one traced memory operation.
type Record struct {
	Core int
	Op   workload.Op
}

const (
	kindRead  = 0
	kindWrite = 1
)

// Writer encodes records to a stream.
type Writer struct {
	w      *bufio.Writer
	hdr    Header
	closed bool
	n      int64
}

// NewWriter writes a header and returns an encoder.
func NewWriter(w io.Writer, cores, lineBytes int) (*Writer, error) {
	if cores <= 0 || cores > 1<<16-1 {
		return nil, fmt.Errorf("trace: bad core count %d", cores)
	}
	if lineBytes <= 0 {
		return nil, fmt.Errorf("trace: bad line size %d", lineBytes)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, err
	}
	hdr := Header{Version: Version, Cores: uint16(cores), LineBytes: uint32(lineBytes)}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return nil, err
	}
	return &Writer{w: bw, hdr: hdr}, nil
}

// Write appends one record.
func (w *Writer) Write(rec Record) error {
	if w.closed {
		return errors.New("trace: write after Flush")
	}
	if rec.Core < 0 || rec.Core >= int(w.hdr.Cores) {
		return fmt.Errorf("trace: core %d out of range", rec.Core)
	}
	if rec.Op.Think < 0 || rec.Op.Addr < 0 {
		return fmt.Errorf("trace: negative think or address")
	}
	var buf [2 + 2*binary.MaxVarintLen64]byte
	buf[0] = byte(rec.Core)
	if rec.Op.Write {
		buf[1] = kindWrite
	} else {
		buf[1] = kindRead
	}
	n := 2
	n += binary.PutUvarint(buf[n:], uint64(rec.Op.Think))
	n += binary.PutUvarint(buf[n:], uint64(rec.Op.Addr))
	if _, err := w.w.Write(buf[:n]); err != nil {
		return err
	}
	if rec.Op.Write {
		if len(rec.Op.Data) != int(w.hdr.LineBytes) {
			return fmt.Errorf("trace: payload %d bytes, line is %d", len(rec.Op.Data), w.hdr.LineBytes)
		}
		if _, err := w.w.Write(rec.Op.Data); err != nil {
			return err
		}
	}
	w.n++
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() int64 { return w.n }

// Flush completes the stream.
func (w *Writer) Flush() error {
	w.closed = true
	return w.w.Flush()
}

// readHeader reads and validates the stream header. Header fields are
// bounds-checked here so every later allocation is sized by a trusted
// value: a malformed or hostile stream fails fast with a descriptive
// error instead of driving the decoder into huge allocations or
// nonsense records.
func readHeader(r io.Reader) (Header, error) {
	var m [8]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return Header{}, fmt.Errorf("trace: reading magic: %w", noEOF(err))
	}
	if m != magic {
		return Header{}, errors.New("trace: bad magic; not a trace stream")
	}
	var hdr Header
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return Header{}, fmt.Errorf("trace: reading header: %w", noEOF(err))
	}
	if hdr.Version != Version {
		return Header{}, fmt.Errorf("trace: unsupported version %d", hdr.Version)
	}
	if hdr.Cores == 0 {
		return Header{}, errors.New("trace: header declares zero cores")
	}
	if hdr.LineBytes == 0 || hdr.LineBytes > MaxLineBytes {
		return Header{}, fmt.Errorf("trace: header line size %d outside [1, %d]", hdr.LineBytes, MaxLineBytes)
	}
	return hdr, nil
}

// noEOF rewrites a bare io.EOF as io.ErrUnexpectedEOF: inside a header
// or record, running out of bytes is truncation, not a clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// errOverflow is encoding/binary's error for a varint over 64 bits.
var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

// uvarint decodes a varint from the front of b as binary.ReadUvarint
// would from a stream holding b: a varint cut short by the end of b is
// io.ErrUnexpectedEOF, and one longer than 64 bits is errOverflow.
func uvarint(b []byte) (uint64, int, error) {
	v, n := binary.Uvarint(b)
	switch {
	case n > 0:
		return v, n, nil
	case n < 0 || len(b) >= binary.MaxVarintLen64:
		return 0, 0, errOverflow
	}
	return 0, 0, io.ErrUnexpectedEOF
}

// varintErr names the record field whose varint uvarint rejected: an
// overflow reads "field: binary: varint overflows a 64-bit integer", a
// cut-short varint "truncated field: unexpected EOF".
func varintErr(field string, err error) error {
	if err == errOverflow {
		return fmt.Errorf("%s: %w", field, err)
	}
	return fmt.Errorf("truncated %s: %w", field, err)
}

// decode decodes the record at the front of b into rec and returns its
// encoded length. It owns the record grammar and every check on it: an
// empty b is the clean end of the stream (io.EOF), a record cut short
// is io.ErrUnexpectedEOF, and a malformed one is an error saying what
// is wrong. A write's payload is a subslice of b, capacity-capped at
// the line size so appending to it reallocates.
func (h Header) decode(b []byte, rec *Record) (int, error) {
	if len(b) == 0 {
		return 0, io.EOF
	}
	core := b[0]
	if uint16(core) >= h.Cores {
		return 0, fmt.Errorf("core %d out of range (trace has %d)", core, h.Cores)
	}
	if len(b) < 2 {
		return 0, fmt.Errorf("truncated record: %w", io.ErrUnexpectedEOF)
	}
	kind := b[1]
	if kind != kindRead && kind != kindWrite {
		return 0, fmt.Errorf("unknown record kind %d", kind)
	}
	think, n, err := uvarint(b[2:])
	if err != nil {
		return 0, varintErr("think", err)
	}
	if think > math.MaxInt64 {
		return 0, fmt.Errorf("think %d overflows int64", think)
	}
	i := 2 + n
	addr, n, err := uvarint(b[i:])
	if err != nil {
		return 0, varintErr("addr", err)
	}
	if addr > math.MaxInt64 {
		return 0, fmt.Errorf("addr %d overflows int64", addr)
	}
	i += n
	*rec = Record{Core: int(core), Op: workload.Op{Think: int64(think), Addr: pcm.LineAddr(addr), Write: kind == kindWrite}}
	if rec.Op.Write {
		j := i + int(h.LineBytes)
		if j > len(b) {
			return 0, fmt.Errorf("truncated payload: %w", io.ErrUnexpectedEOF)
		}
		rec.Op.Data = b[i:j:j]
		i = j
	}
	return i, nil
}

// Parse decodes an entire trace stream: header validation, then every
// record. It is the one ingestion path of the tool chain; errors carry
// the failing record number and the successfully decoded prefix is
// returned even on failure.
//
// The rest of the stream after the header is read into one buffer,
// sized up front when the source reports its remaining length (as
// bytes.Reader does). A first pass over the buffer validates and counts
// the records before the first error; a second decodes them into an
// exactly sized slice.
//
// The records are read-only. Write payloads alias the buffer, so
// writing into one record's Data would change what every later replay
// of the trace sees; appending to it reallocates.
func Parse(r io.Reader) (Header, []Record, error) {
	hdr, err := readHeader(r)
	if err != nil {
		return Header{}, nil, err
	}
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		// MinRead: ReadFrom wants that much room for the read that ends.
		buf.Grow(l.Len() + bytes.MinRead)
	}
	_, readErr := buf.ReadFrom(r)
	b := buf.Bytes()

	var rec Record
	count, off := 0, 0
	n, err := hdr.decode(b, &rec)
	for ; err == nil; n, err = hdr.decode(b[off:], &rec) {
		off += n
		count++
	}
	recs := make([]Record, count)
	for i, off := 0, 0; i < count; i++ {
		n, _ := hdr.decode(b[off:], &recs[i])
		off += n
	}
	// A truncation the source caused by failing is reported as the
	// source's error. io.EOF is then the clean end; anything else names
	// the 1-based number of the record it hit, so a corrupt
	// multi-gigabyte trace pinpoints its bad record.
	if readErr != nil && (err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF)) {
		err = readErr
	}
	if err == io.EOF {
		return hdr, recs, nil
	}
	return hdr, recs, fmt.Errorf("trace: record %d: %w", count+1, err)
}

// CoreSource adapts one core's records from a fully decoded trace into a
// cpu.OpSource. When the trace runs dry the source idles the core with
// a huge think gap, letting it run out its instruction budget
// deterministically.
//
// The source reads recs in place and copies nothing: the operations it
// returns share their payloads with recs, and neither it nor its caller
// may write to them. Sources of different cores may share one recs.
type CoreSource struct {
	recs []Record
	core int
	i    int // next record to examine
}

// NewCoreSource returns the source of one core's records.
func NewCoreSource(recs []Record, core int) *CoreSource {
	return &CoreSource{recs: recs, core: core}
}

// Len returns the number of operations for the core.
func (s *CoreSource) Len() int {
	n := 0
	for i := range s.recs {
		if s.recs[i].Core == s.core {
			n++
		}
	}
	return n
}

// Next returns the core's next operation, skipping other cores'
// records.
func (s *CoreSource) Next() workload.Op {
	for s.i < len(s.recs) {
		r := &s.recs[s.i]
		s.i++
		if r.Core == s.core {
			return r.Op
		}
	}
	return workload.Op{Think: 1 << 40, Addr: 0}
}

// Generate captures n operations of every core of a workload program
// into a record stream, in round-robin interleaving.
func Generate(prof workload.Profile, cores int, seed int64, par pcm.Params, n int) []Record {
	prog := workload.NewProgram(prof, cores, seed, par)
	gens := make([]*workload.Generator, cores)
	for i := range gens {
		gens[i] = prog.Generator(i)
	}
	out := make([]Record, 0, n)
	for len(out) < n {
		for c, g := range gens {
			if len(out) >= n {
				break
			}
			op := g.Next()
			if op.Write {
				// The generator reuses its payload buffer on the next call.
				op.Data = bytes.Clone(op.Data)
			}
			out = append(out, Record{Core: c, Op: op})
		}
	}
	return out
}
