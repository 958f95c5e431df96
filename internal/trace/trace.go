// Package trace defines the execution-trace representation that drives the
// simulator, plus binary and text codecs for storing traces on disk.
//
// A trace is a flat sequence of records. Each record describes one memory
// operation together with the number of non-memory instructions that
// precede it, which is all the timing model needs: compute instructions
// are accounted analytically, memory operations walk the cache hierarchy.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"asdsim/internal/mem"
)

// Op is the kind of memory operation a record performs.
type Op uint8

const (
	// Load is a data read.
	Load Op = iota
	// Store is a data write.
	Store
)

// String implements fmt.Stringer.
func (o Op) String() string {
	if o == Store {
		return "Store"
	}
	return "Load"
}

// Record is one memory operation in a trace.
type Record struct {
	// Gap is the number of non-memory instructions executed before this
	// operation (since the previous record).
	Gap uint32
	// Op is the operation kind.
	Op Op
	// Addr is the virtual=physical byte address accessed.
	Addr mem.Addr
}

// Source produces trace records. Workload generators and file readers both
// implement Source. Next returns ok=false when the trace is exhausted.
type Source interface {
	Next() (rec Record, ok bool)
}

// SliceSource adapts a []Record to a Source.
type SliceSource struct {
	recs []Record
	pos  int
}

// NewSliceSource returns a Source reading from recs.
func NewSliceSource(recs []Record) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next() (Record, bool) {
	if s.pos >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// Pos returns the index of the record the next Next call will return.
func (s *SliceSource) Pos() int { return s.pos }

// Skip advances the cursor n records without reading them, clamped to
// the end of the slice. Callers skipping records are responsible for
// accounting their retirement (see cpu.Thread.SkipRetired).
func (s *SliceSource) Skip(n int) {
	s.pos += n
	if s.pos > len(s.recs) {
		s.pos = len(s.recs)
	}
}

// Len returns the total number of records.
func (s *SliceSource) Len() int { return len(s.recs) }

// Collect drains up to max records from src (all records if max <= 0).
func Collect(src Source, max int) []Record {
	var out []Record
	for max <= 0 || len(out) < max {
		r, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

// Limit wraps src, stopping after n records.
func Limit(src Source, n int) Source { return &limitSource{src: src, n: n} }

type limitSource struct {
	src Source
	n   int
}

func (l *limitSource) Next() (Record, bool) {
	if l.n <= 0 {
		return Record{}, false
	}
	l.n--
	return l.src.Next()
}

// magic identifies the binary trace file format, version 1.
var magic = [4]byte{'A', 'S', 'D', '1'}

// Writer encodes records to a compact binary stream. The format is:
// 4-byte magic, then per record: uvarint gap, one op byte, uvarint
// delta-encoded address (zig-zag against the previous address).
type Writer struct {
	w        *bufio.Writer
	prevAddr mem.Addr
	started  bool
	count    uint64
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Write appends one record.
func (tw *Writer) Write(r Record) error {
	if !tw.started {
		if _, err := tw.w.Write(magic[:]); err != nil {
			return err
		}
		tw.started = true
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(r.Gap))
	if _, err := tw.w.Write(buf[:n]); err != nil {
		return err
	}
	if err := tw.w.WriteByte(byte(r.Op)); err != nil {
		return err
	}
	delta := int64(r.Addr) - int64(tw.prevAddr)
	n = binary.PutVarint(buf[:], delta)
	if _, err := tw.w.Write(buf[:n]); err != nil {
		return err
	}
	tw.prevAddr = r.Addr
	tw.count++
	return nil
}

// Count returns the number of records written so far.
func (tw *Writer) Count() uint64 { return tw.count }

// Flush flushes buffered output. Callers must Flush before closing the
// underlying writer.
func (tw *Writer) Flush() error {
	if !tw.started {
		// An empty trace still carries the magic so readers can
		// distinguish "empty trace" from "not a trace".
		if _, err := tw.w.Write(magic[:]); err != nil {
			return err
		}
		tw.started = true
	}
	return tw.w.Flush()
}

// ErrBadMagic reports that a stream is not a binary trace.
var ErrBadMagic = errors.New("trace: bad magic (not an ASD1 trace stream)")

// Reader decodes the binary stream produced by Writer. It implements
// Source; decode errors terminate the stream and are available via Err.
type Reader struct {
	r        *bufio.Reader
	prevAddr mem.Addr
	started  bool
	err      error
}

// NewReader returns a Reader decoding from r.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

// Err returns the first error encountered (nil on clean EOF).
func (tr *Reader) Err() error { return tr.err }

// Next implements Source.
func (tr *Reader) Next() (Record, bool) {
	if tr.err != nil {
		return Record{}, false
	}
	if !tr.started {
		var m [4]byte
		if _, err := io.ReadFull(tr.r, m[:]); err != nil {
			tr.fail(err)
			return Record{}, false
		}
		if m != magic {
			tr.err = ErrBadMagic
			return Record{}, false
		}
		tr.started = true
	}
	gap, err := binary.ReadUvarint(tr.r)
	if err != nil {
		tr.fail(err)
		return Record{}, false
	}
	if gap > 1<<32-1 {
		tr.err = fmt.Errorf("trace: gap %d overflows uint32", gap)
		return Record{}, false
	}
	opb, err := tr.r.ReadByte()
	if err != nil {
		tr.fail(err)
		return Record{}, false
	}
	if opb > byte(Store) {
		tr.err = fmt.Errorf("trace: invalid op byte %#x", opb)
		return Record{}, false
	}
	delta, err := binary.ReadVarint(tr.r)
	if err != nil {
		tr.fail(err)
		return Record{}, false
	}
	addr := mem.Addr(int64(tr.prevAddr) + delta)
	tr.prevAddr = addr
	return Record{Gap: uint32(gap), Op: Op(opb), Addr: addr}, true
}

// fail records err unless it is a clean EOF at a record boundary.
func (tr *Reader) fail(err error) {
	if err == io.EOF {
		return // clean end of trace
	}
	if err == io.ErrUnexpectedEOF {
		tr.err = fmt.Errorf("trace: truncated record: %w", err)
		return
	}
	tr.err = err
}
