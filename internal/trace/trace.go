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
// Multi-core traces interleave records in generation order; Reader can
// filter one core's stream.
package trace

import (
	"bufio"
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

// Reader decodes a trace stream.
type Reader struct {
	r   *bufio.Reader
	hdr Header
	n   int64 // records decoded so far, for error positions

	// slab is the unused tail of the block write payloads are carved
	// from: one allocation per slabBytes of payload instead of one per
	// record.
	slab []byte
}

// slabBytes sizes the payload blocks; a line larger than this gets a
// block of its own.
const slabBytes = 64 << 10

// NewReader validates the header and returns a decoder. Header fields
// are bounds-checked here so every later allocation is sized by a
// trusted value: a malformed or hostile stream fails fast with a
// descriptive error instead of driving the decoder into huge
// allocations or nonsense records.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", noEOF(err))
	}
	if m != magic {
		return nil, errors.New("trace: bad magic; not a trace stream")
	}
	var hdr Header
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", noEOF(err))
	}
	if hdr.Version != Version {
		return nil, fmt.Errorf("trace: unsupported version %d", hdr.Version)
	}
	if hdr.Cores == 0 {
		return nil, errors.New("trace: header declares zero cores")
	}
	if hdr.LineBytes == 0 || hdr.LineBytes > MaxLineBytes {
		return nil, fmt.Errorf("trace: header line size %d outside [1, %d]", hdr.LineBytes, MaxLineBytes)
	}
	return &Reader{r: br, hdr: hdr}, nil
}

// noEOF rewrites a bare io.EOF as io.ErrUnexpectedEOF: inside a header
// or record, running out of bytes is truncation, not a clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Header returns the stream header.
func (r *Reader) Header() Header { return r.hdr }

// Records returns how many records have been decoded so far.
func (r *Reader) Records() int64 { return r.n }

// Next decodes one record. It returns io.EOF at a clean end of stream;
// any other failure — truncation mid-record, an out-of-range core, an
// unknown kind — is an error naming the 1-based record number, so a
// corrupt multi-gigabyte trace pinpoints its bad record instead of
// reporting a bare "unexpected EOF".
func (r *Reader) Next() (Record, error) {
	rec, err := r.next()
	if err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("trace: record %d: %w", r.n+1, err)
	}
	r.n++
	return rec, nil
}

func (r *Reader) next() (Record, error) {
	core, err := r.r.ReadByte()
	if err != nil {
		return Record{}, err // io.EOF here is the clean end of stream
	}
	if int(core) >= int(r.hdr.Cores) {
		return Record{}, fmt.Errorf("core %d out of range (trace has %d)", core, r.hdr.Cores)
	}
	kind, err := r.r.ReadByte()
	if err != nil {
		return Record{}, fmt.Errorf("truncated record: %w", noEOF(err))
	}
	if kind != kindRead && kind != kindWrite {
		return Record{}, fmt.Errorf("unknown record kind %d", kind)
	}
	think, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Record{}, fmt.Errorf("truncated think: %w", noEOF(err))
	}
	if think > math.MaxInt64 {
		return Record{}, fmt.Errorf("think %d overflows int64", think)
	}
	addr, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Record{}, fmt.Errorf("truncated addr: %w", noEOF(err))
	}
	if addr > math.MaxInt64 {
		return Record{}, fmt.Errorf("addr %d overflows int64", addr)
	}
	rec := Record{
		Core: int(core),
		Op: workload.Op{
			Think: int64(think),
			Addr:  pcm.LineAddr(addr),
			Write: kind == kindWrite,
		},
	}
	if rec.Op.Write {
		rec.Op.Data = r.payload()
		if _, err := io.ReadFull(r.r, rec.Op.Data); err != nil {
			return Record{}, fmt.Errorf("truncated payload: %w", noEOF(err))
		}
	}
	return rec, nil
}

// payload carves the next write payload from the slab. Its capacity is
// capped at the line size, so appending to one record's Data reallocates
// instead of running into the next record's payload.
func (r *Reader) payload() []byte {
	lb := int(r.hdr.LineBytes)
	if len(r.slab) < lb {
		r.slab = make([]byte, max(lb, slabBytes/lb*lb))
	}
	data := r.slab[:lb:lb]
	r.slab = r.slab[lb:]
	return data
}

// ReadAll decodes the whole stream. On error it returns the records
// decoded before the failure alongside the error.
//
// Records accumulate in fixed-size blocks that are copied once into an
// exactly sized result: appending to one slice would reallocate, zero
// and copy a multi-megabyte trace many times over as it grows.
func (r *Reader) ReadAll() ([]Record, error) {
	const blockRecords = 1024
	var full [][]Record
	block := make([]Record, 0, blockRecords)
	for {
		rec, err := r.Next()
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return concat(full, block), err
		}
		if len(block) == cap(block) {
			full = append(full, block)
			block = make([]Record, 0, blockRecords)
		}
		block = append(block, rec)
	}
}

// concat joins full blocks and a final partial one into one slice, nil
// when there are no records.
func concat(full [][]Record, last []Record) []Record {
	n := len(last)
	for _, b := range full {
		n += len(b)
	}
	if n == 0 {
		return nil
	}
	out := make([]Record, 0, n)
	for _, b := range full {
		out = append(out, b...)
	}
	return append(out, last...)
}

// Parse decodes an entire trace stream: header validation, then every
// record. It is the one-call ingestion path the tools use; errors carry
// the failing record number and the successfully decoded prefix is
// returned even on failure.
func Parse(r io.Reader) (Header, []Record, error) {
	tr, err := NewReader(r)
	if err != nil {
		return Header{}, nil, err
	}
	recs, err := tr.ReadAll()
	return tr.Header(), recs, err
}

// CoreSource adapts one core's records from a fully decoded trace into a
// cpu.OpSource. When the trace runs dry the source repeats its last
// operation with a huge think gap, letting the core idle out its
// instruction budget deterministically.
type CoreSource struct {
	ops []workload.Op
	i   int
}

// NewCoreSource filters records for one core.
func NewCoreSource(recs []Record, core int) *CoreSource {
	n := 0
	for _, r := range recs {
		if r.Core == core {
			n++
		}
	}
	s := &CoreSource{ops: make([]workload.Op, 0, n)}
	for _, r := range recs {
		if r.Core == core {
			s.ops = append(s.ops, r.Op)
		}
	}
	return s
}

// Len returns the number of operations for the core.
func (s *CoreSource) Len() int { return len(s.ops) }

// Next returns the next operation.
func (s *CoreSource) Next() workload.Op {
	if s.i < len(s.ops) {
		op := s.ops[s.i]
		s.i++
		return op
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
			out = append(out, Record{Core: c, Op: g.Next()})
		}
	}
	return out
}
