package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"asdsim/internal/mem"
)

func TestOpString(t *testing.T) {
	if Load.String() != "Load" || Store.String() != "Store" {
		t.Errorf("Op strings: %v %v", Load, Store)
	}
}

func TestSliceSource(t *testing.T) {
	recs := []Record{{Gap: 1, Op: Load, Addr: 100}, {Gap: 2, Op: Store, Addr: 200}}
	s := NewSliceSource(recs)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	got := Collect(s, 0)
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("Collect = %v, want %v", got, recs)
	}
	if _, ok := s.Next(); ok {
		t.Errorf("exhausted source returned a record")
	}
	s.Reset()
	if r, ok := s.Next(); !ok || r != recs[0] {
		t.Errorf("Reset did not rewind")
	}
}

func TestCollectMax(t *testing.T) {
	recs := []Record{{Addr: 1}, {Addr: 2}, {Addr: 3}}
	got := Collect(NewSliceSource(recs), 2)
	if len(got) != 2 || got[1].Addr != 2 {
		t.Errorf("Collect(2) = %v", got)
	}
}

func TestLimit(t *testing.T) {
	recs := []Record{{Addr: 1}, {Addr: 2}, {Addr: 3}}
	got := Collect(Limit(NewSliceSource(recs), 2), 0)
	if len(got) != 2 {
		t.Errorf("Limit(2) yielded %d records", len(got))
	}
	got = Collect(Limit(NewSliceSource(recs), 0), 0)
	if len(got) != 0 {
		t.Errorf("Limit(0) yielded %d records", len(got))
	}
}

func roundTrip(t *testing.T, recs []Record) []Record {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if w.Count() != uint64(len(recs)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(recs))
	}
	r := NewReader(&buf)
	got := Collect(r, 0)
	if r.Err() != nil {
		t.Fatalf("Reader error: %v", r.Err())
	}
	return got
}

func TestBinaryRoundTripBasic(t *testing.T) {
	recs := []Record{
		{Gap: 0, Op: Load, Addr: 0},
		{Gap: 7, Op: Store, Addr: 128},
		{Gap: 1 << 20, Op: Load, Addr: 0xDEADBEEF},
		{Gap: 3, Op: Load, Addr: 64}, // address going down: negative delta
	}
	got := roundTrip(t, recs)
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", got, recs)
	}
}

func TestBinaryRoundTripEmpty(t *testing.T) {
	got := roundTrip(t, nil)
	if len(got) != 0 {
		t.Errorf("empty trace round trip = %v", got)
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(gaps []uint16, addrs []uint32, ops []bool) bool {
		n := len(gaps)
		if len(addrs) < n {
			n = len(addrs)
		}
		if len(ops) < n {
			n = len(ops)
		}
		recs := make([]Record, n)
		for i := 0; i < n; i++ {
			op := Load
			if ops[i] {
				op = Store
			}
			recs[i] = Record{Gap: uint32(gaps[i]), Op: op, Addr: mem.Addr(addrs[i])}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, r := range recs {
			if w.Write(r) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		r := NewReader(&buf)
		got := Collect(r, 0)
		if r.Err() != nil {
			return false
		}
		if len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReaderBadMagic(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("NOPE....")))
	if _, ok := r.Next(); ok {
		t.Fatal("Next succeeded on bad magic")
	}
	if r.Err() != ErrBadMagic {
		t.Errorf("Err = %v, want ErrBadMagic", r.Err())
	}
}

func TestReaderTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Record{Gap: 5, Op: Load, Addr: 1000}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Chop off the final byte: the record becomes unreadable.
	data := buf.Bytes()[:buf.Len()-1]
	r := NewReader(bytes.NewReader(data))
	if _, ok := r.Next(); ok {
		t.Fatal("Next succeeded on truncated record")
	}
	if r.Err() == nil {
		t.Error("truncated stream should report an error")
	}
}

func TestReaderInvalidOp(t *testing.T) {
	// magic + gap=0 + op=9 + delta=0
	data := append([]byte("ASD1"), 0x00, 0x09, 0x00)
	r := NewReader(bytes.NewReader(data))
	if _, ok := r.Next(); ok {
		t.Fatal("Next succeeded on invalid op")
	}
	if r.Err() == nil {
		t.Error("invalid op should report an error")
	}
}

func TestReaderEmptyStream(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	if _, ok := r.Next(); ok {
		t.Fatal("Next succeeded on empty stream")
	}
	if r.Err() != nil {
		t.Errorf("zero-byte stream is clean EOF, got %v", r.Err())
	}
}

func BenchmarkWriterThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	recs := make([]Record, 4096)
	for i := range recs {
		recs[i] = Record{Gap: uint32(rng.Intn(100)), Op: Op(rng.Intn(2)), Addr: mem.Addr(rng.Uint64() >> 20)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWriter(io.Discard)
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}
