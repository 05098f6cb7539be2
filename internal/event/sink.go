package event

import (
	"bufio"
	"io"
	"sync"
)

// LineSink is the output end of a stream session: it encodes derived
// events in the Writer format into one buffer (bufio's default size,
// written through whenever it fills) and writes the buffer out when
// the engine reports that it has delivered everything it holds (Idle).
// A result therefore leaves as soon as the engine goes quiet, instead
// of waiting for later output to fill the buffer. Emit and Idle are the
// engine's OnOutput and OnIdle hooks; they are safe for concurrent use,
// because the worker pool delivers from several goroutines.
//
// The first write error is kept: from then on output is dropped
// instead of calling a failing writer once per line, and Err reports
// the error.
type LineSink struct {
	mu  sync.Mutex
	out Writer
	err error
}

// NewLineSink wraps w.
func NewLineSink(w io.Writer) *LineSink {
	return &LineSink{out: Writer{w: bufio.NewWriter(w)}}
}

// Emit encodes one event into the buffer.
func (s *LineSink) Emit(e *Event) {
	s.mu.Lock()
	if s.err == nil {
		s.err = s.out.Write(e)
	}
	s.mu.Unlock()
}

// Idle writes out whatever is buffered; with nothing buffered it makes
// no write at all.
func (s *LineSink) Idle() { _ = s.flush() }

// Close writes out whatever is still buffered and returns the first
// write error. Call it once the engine run has returned.
func (s *LineSink) Close() error { return s.flush() }

// Err returns the first write error, or nil.
func (s *LineSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *LineSink) flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		// bufio.Writer.Flush makes no write when nothing is buffered.
		s.err = s.out.Flush()
	}
	return s.err
}
