package event

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Source yields events in non-decreasing occurrence-time order
// (paper §6.2: events arrive in-order by time stamps). Next returns
// nil when the stream is exhausted.
type Source interface {
	Next() *Event
}

// SliceSource replays a slice of events. It validates ordering
// lazily: yielding an out-of-order event panics, because a source
// violating the in-order contract would corrupt context derivation.
type SliceSource struct {
	events []*Event
	pos    int
	last   Time
	epoch  uint64
}

// NewSliceSource wraps events (not copied) as a Source.
func NewSliceSource(events []*Event) *SliceSource {
	return &SliceSource{events: events, last: -1 << 62}
}

// Next implements Source.
func (s *SliceSource) Next() *Event {
	if s.pos >= len(s.events) {
		return nil
	}
	e := s.events[s.pos]
	s.pos++
	if e.End() < s.last {
		panic(fmt.Sprintf("event: SliceSource out of order: %v after t=%d", e, s.last))
	}
	s.last = e.End()
	return e
}

// NextBatch implements BatchSource with zero-copy, tick-aligned
// subslices of the backing slice: no events are copied and no memory
// is allocated, so a replayed slice is the cheapest possible batch
// feed for benchmarks.
func (s *SliceSource) NextBatch(b *Batch) bool {
	b.Epoch = s.epoch
	b.Events = nil
	if s.pos >= len(s.events) {
		return false
	}
	s.epoch++
	start := s.pos
	end := start
	for end < len(s.events) {
		e := s.events[end]
		if e.End() < s.last {
			panic(fmt.Sprintf("event: SliceSource out of order: %v after t=%d", e, s.last))
		}
		s.last = e.End()
		end++
		if end-start >= batcherTarget {
			// Close the batch on the current tick boundary.
			for end < len(s.events) && s.events[end].End() == s.last {
				end++
			}
			break
		}
	}
	s.pos = end
	b.Events = s.events[start:end]
	return end < len(s.events)
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0; s.last = -1 << 62; s.epoch = 0 }

// Len returns the total number of events in the source.
func (s *SliceSource) Len() int { return len(s.events) }

// SortByTime sorts events in place by occurrence end time, stably, so
// that generator output can be fed to a Source.
func SortByTime(events []*Event) {
	sort.SliceStable(events, func(i, j int) bool { return events[i].End() < events[j].End() })
}

// Drain reads a source to exhaustion and returns all events.
func Drain(src Source) []*Event {
	var out []*Event
	for e := src.Next(); e != nil; e = src.Next() {
		out = append(out, e)
	}
	return out
}

// Writer encodes events as line-oriented text:
//
//	TypeName|time|v1|v2|...
//
// The format is the on-disk interchange between cmd/lrgen and
// cmd/caesar. It is intentionally trivial: one line per event, fields
// separated by '|', strings must not contain '|' or newlines.
type Writer struct {
	w *bufio.Writer
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Write encodes one event.
func (w *Writer) Write(e *Event) error {
	b := w.w
	if _, err := b.WriteString(e.Schema.Name()); err != nil {
		return err
	}
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(int64(e.Time.Start), 10))
	if e.Time.End != e.Time.Start {
		b.WriteByte('~')
		b.WriteString(strconv.FormatInt(int64(e.Time.End), 10))
	}
	for _, v := range e.Values {
		b.WriteByte('|')
		b.WriteString(v.String())
	}
	return b.WriteByte('\n')
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// Scanner buffer bounds, matching the bufio.Scanner limits the Reader
// historically used: lines over maxLine bytes fail with
// bufio.ErrTooLong (wrapped with the line number).
const (
	initialLineBuf = 64 * 1024
	maxLine        = 1 << 20
)

// lineScanner is a reusable replacement for bufio.Scanner: it yields
// '\n'-terminated lines as subslices of an internal growable buffer,
// and — unlike bufio.Scanner — can be pointed at a new reader with
// reset, so a steady-state Reader never reallocates its scan buffer.
type lineScanner struct {
	r          io.Reader
	buf        []byte
	start, end int
	eof        bool
}

func (s *lineScanner) reset(r io.Reader) {
	s.r = r
	s.start, s.end = 0, 0
	s.eof = false
}

// next returns the next line (without its '\n'), io.EOF at end of
// stream, bufio.ErrTooLong past maxLine, or the reader's error.
func (s *lineScanner) next() ([]byte, error) {
	for {
		if i := bytes.IndexByte(s.buf[s.start:s.end], '\n'); i >= 0 {
			line := s.buf[s.start : s.start+i]
			s.start += i + 1
			return line, nil
		}
		if s.eof {
			if s.start < s.end {
				line := s.buf[s.start:s.end]
				s.start = s.end
				return line, nil
			}
			return nil, io.EOF
		}
		if s.start > 0 {
			n := copy(s.buf, s.buf[s.start:s.end])
			s.start, s.end = 0, n
		}
		if s.end == len(s.buf) {
			if len(s.buf) >= maxLine {
				return nil, bufio.ErrTooLong
			}
			size := len(s.buf) * 2
			if size == 0 {
				size = initialLineBuf
			}
			if size > maxLine {
				size = maxLine
			}
			nb := make([]byte, size)
			copy(nb, s.buf[:s.end])
			s.buf = nb
		}
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		if err == io.EOF {
			s.eof = true
		} else if err != nil {
			return nil, err
		}
	}
}

// Reader decodes the Writer format against a schema registry. It
// serves both stream protocols: Next yields heap-allocated events
// (the legacy per-event Source), and NextBatch decodes directly into
// an event slab arena with no per-event allocation (DESIGN.md §3.4).
// Decoding errors surface through Err after the stream ends.
type Reader struct {
	sc   lineScanner
	reg  *Registry
	err  error
	ln   int
	done bool

	arena       *Arena
	last        *Schema // the previous line's schema, tried before byName
	peek        *Event
	epoch       uint64
	batchEvents int
	chunkEvents int
}

// NewReader wraps r; schemas are resolved through reg.
func NewReader(r io.Reader, reg *Registry) *Reader {
	rd := &Reader{reg: reg, batchEvents: batcherTarget}
	rd.sc.reset(r)
	return rd
}

// Reset points the reader at a new input stream, clearing line
// numbers and errors but keeping the scan buffer and the arena — the
// reuse that makes repeated decoding allocation-free. All sealed
// arena slabs are recycled: resetting asserts the previous stream's
// events are no longer referenced.
func (r *Reader) Reset(rd io.Reader) {
	r.sc.reset(rd)
	r.err = nil
	r.ln = 0
	r.done = false
	r.peek = nil
	r.epoch = 0
	if r.arena != nil {
		r.arena.Reset()
	}
}

// Tune sizes the batch path: chunkEvents is the arena slab
// granularity (events per slab; effective only before the first
// NextBatch), batchEvents the soft batch size. Zero keeps a
// parameter's current setting.
func (r *Reader) Tune(chunkEvents, batchEvents int) {
	if chunkEvents > 0 {
		r.chunkEvents = chunkEvents
	}
	if batchEvents > 0 {
		r.batchEvents = batchEvents
	}
}

// Next implements Source. On malformed input it records the error and
// ends the stream.
func (r *Reader) Next() *Event {
	if e := r.peek; e != nil {
		r.peek = nil
		return e
	}
	return r.read(nil)
}

// read scans to the next event line and decodes it, into a when a is
// non-nil, onto the heap otherwise. It returns nil at end of stream
// or on error (recorded in r.err).
func (r *Reader) read(a *Arena) *Event {
	if r.err != nil || r.done {
		return nil
	}
	for {
		line, err := r.sc.next()
		if err == io.EOF {
			r.done = true
			return nil
		}
		if err != nil {
			if errors.Is(err, bufio.ErrTooLong) {
				r.err = fmt.Errorf("event: line %d: %w (line exceeds %d bytes; expected TypeName|time|values...)",
					r.ln+1, err, maxLine)
			} else {
				r.err = fmt.Errorf("event: line %d: %w", r.ln+1, err)
			}
			return nil
		}
		r.ln++
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		e, derr := r.decode(line, a)
		if derr != nil {
			r.err = fmt.Errorf("event: line %d: %w", r.ln, derr)
			return nil
		}
		return e
	}
}

// NextBatch implements BatchSource: it decodes whole ticks into the
// reader's arena until the soft batch size is reached. On a
// mid-stream error the partial batch is still delivered (false
// return) and the error is available through Err.
func (r *Reader) NextBatch(b *Batch) bool {
	b.Epoch = r.epoch
	b.Events = b.Events[:0]
	if r.err != nil || (r.done && r.peek == nil) {
		return false
	}
	if r.arena == nil {
		r.arena = NewArena(r.chunkEvents)
	}
	r.epoch++
	for {
		e := r.peek
		r.peek = nil
		if e == nil {
			if e = r.read(r.arena); e == nil {
				return false
			}
		}
		b.Events = append(b.Events, e)
		if len(b.Events) >= r.batchEvents {
			// Close the batch on the current tick boundary.
			ts := e.End()
			for {
				n := r.read(r.arena)
				if n == nil {
					return false
				}
				if n.End() != ts {
					r.peek = n
					return true
				}
				b.Events = append(b.Events, n)
			}
		}
	}
}

// ReclaimBefore implements Reclaimer: it recycles arena slabs fully
// below t. Safe to call only when no event ending before t is still
// referenced downstream.
func (r *Reader) ReclaimBefore(t Time) int {
	if r.arena == nil {
		return 0
	}
	return r.arena.ReclaimBefore(t)
}

// ArenaChunks reports (allocated, reclaimed) arena slab counts; zero
// before the first NextBatch.
func (r *Reader) ArenaChunks() (chunks, reclaimed int) {
	if r.arena == nil {
		return 0, 0
	}
	return r.arena.Chunks(), r.arena.Reclaimed()
}

// Err returns the first decoding or I/O error encountered.
func (r *Reader) Err() error { return r.err }

// decode parses one trimmed, non-empty line in a single walk guided by
// the schema: each int field is parsed in place up to the next '|',
// other kinds go through parseValue on their token, and arity is
// checked by running out of fields or bytes. With a non-nil arena the
// event and its Values array are carved from slabs; string and float
// attribute values still copy onto the heap, deliberately, because
// derived events may retain them past slab reclamation.
func (r *Reader) decode(line []byte, a *Arena) (*Event, error) {
	i := bytes.IndexByte(line, '|')
	if i < 0 {
		return nil, fmt.Errorf("expected TypeName|time|values..., got %q", line)
	}
	s := r.last
	if s == nil || s.name != string(line[:i]) {
		var ok bool
		if s, ok = r.reg.byName[string(line[:i])]; !ok { // no-alloc map lookup
			return nil, fmt.Errorf("unknown event type %q", line[:i])
		}
		r.last = s
	}
	tf, vals := line[i+1:], []byte(nil)
	if j := bytes.IndexByte(tf, '|'); j >= 0 {
		tf, vals = tf[:j], tf[j+1:]
	}
	iv, err := parseInterval(tf)
	if err != nil {
		return nil, err
	}
	n := len(s.fields)
	if (vals == nil) != (n == 0) { // the walk cannot see a missing or stray value list
		return nil, decodeErr(s, vals, 0, 0)
	}
	var e *Event
	if a != nil {
		e = a.Alloc(s, iv, n)
	} else {
		e = &Event{Schema: s, Time: iv, Values: make([]Value, n)}
	}
	p := 0 // start of field f's token in vals
	for f := 0; f < n; f++ {
		var end int
		if k := s.fields[f].Kind; k == KindInt {
			v, m, ok := scanInt(vals[p:])
			end = p + m
			if !ok || (end < len(vals) && vals[end] != '|') {
				return nil, decodeErr(s, vals, f, p)
			}
			e.Values[f] = Int64(v)
		} else {
			end = len(vals)
			if j := bytes.IndexByte(vals[p:], '|'); j >= 0 {
				end = p + j
			}
			v, err := parseValue(k, vals[p:end])
			if err != nil {
				return nil, decodeErr(s, vals, f, p)
			}
			e.Values[f] = v
		}
		// end is at a '|' or at the end of vals: the last field must
		// end the line, every other field must not.
		if (end == len(vals)) != (f == n-1) {
			return nil, decodeErr(s, vals, f, p)
		}
		p = end + 1
	}
	return e, nil
}

// decodeErr builds the error for a line of schema s whose walk failed
// at field f, whose token starts at vals[p]. Arity takes precedence
// over the value, so the values are counted here, off the success
// path; when the count matches, field f's token is what failed.
func decodeErr(s *Schema, vals []byte, f, p int) error {
	got := 0
	if vals != nil {
		got = bytes.Count(vals, sep) + 1
	}
	if got != len(s.fields) {
		return fmt.Errorf("%s expects %d values, got %d", s.Name(), len(s.fields), got)
	}
	raw := vals[p:]
	if k := bytes.IndexByte(raw, '|'); k >= 0 {
		raw = raw[:k]
	}
	_, err := parseValue(s.fields[f].Kind, raw)
	return fmt.Errorf("%s.%s: %w", s.Name(), s.fields[f].Name, err)
}

var sep = []byte{'|'}

func parseInterval(s []byte) (Interval, error) {
	if i := bytes.IndexByte(s, '~'); i >= 0 {
		start, ok1 := parseInt(s[:i])
		end, ok2 := parseInt(s[i+1:])
		if !ok1 || !ok2 || start > end {
			return Interval{}, fmt.Errorf("bad time interval %q", s)
		}
		return Interval{Start: Time(start), End: Time(end)}, nil
	}
	t, ok := parseInt(s)
	if !ok {
		return Interval{}, fmt.Errorf("bad time %q", s)
	}
	return Point(Time(t)), nil
}

func parseValue(k Kind, raw []byte) (Value, error) {
	switch k {
	case KindInt:
		n, ok := parseInt(raw)
		if !ok {
			return Value{}, fmt.Errorf("bad int %q", raw)
		}
		return Int64(n), nil
	case KindFloat:
		f, err := strconv.ParseFloat(string(raw), 64)
		if err != nil {
			return Value{}, fmt.Errorf("bad float %q", raw)
		}
		return Float64(f), nil
	case KindString:
		// Deliberate copy: the string must outlive arena reclamation.
		return String(string(raw)), nil
	case KindBool:
		if string(raw) == "true" {
			return Bool(true), nil
		}
		if string(raw) == "false" {
			return Bool(false), nil
		}
		return Value{}, fmt.Errorf("bad bool %q", raw)
	default:
		return Value{}, fmt.Errorf("invalid kind")
	}
}

// parseInt parses a whole token with scanInt.
func parseInt(b []byte) (int64, bool) {
	v, n, ok := scanInt(b)
	return v, ok && n == len(b)
}

// scanInt is an allocation-free base-10 int64 parser with overflow
// checking, accepting an optional leading sign (the subset of
// strconv.ParseInt the wire format produces). It parses from the
// front of b and stops at the first byte that is not a digit,
// returning the value and the bytes consumed; ok is false when there
// is no digit or the value overflows.
func scanInt(b []byte) (v int64, n int, ok bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		n = 1
	}
	first := n // the first digit's index
	var u uint64
	for ; n < len(b); n++ {
		d := b[n] - '0'
		if d > 9 {
			break
		}
		if u > (1<<63)/10 {
			return 0, n, false
		}
		if u = u*10 + uint64(d); u > 1<<63 {
			return 0, n, false
		}
	}
	if n == first || (!neg && u == 1<<63) {
		return 0, n, false
	}
	if neg {
		return -int64(u), n, true // u == 1<<63 wraps to MinInt64, which is correct
	}
	return int64(u), n, true
}
