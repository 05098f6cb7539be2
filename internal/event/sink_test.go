package event

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
)

// countingWriter records every Write call; after failAfter bytes
// (when positive) it fails each write.
type countingWriter struct {
	mu        sync.Mutex
	buf       bytes.Buffer
	writes    int
	failAfter int
}

var errSinkTest = errors.New("peer gone")

func (c *countingWriter) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	if c.failAfter > 0 && c.buf.Len()+len(p) > c.failAfter {
		return 0, errSinkTest
	}
	return c.buf.Write(p)
}

func (c *countingWriter) counts() (writes int, out string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, c.buf.String()
}

func sinkEvents(n int) []*Event {
	_, pr, toll := codecRegistry()
	evs := make([]*Event, 0, n)
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			evs = append(evs, &Event{Schema: toll, Time: Interval{Start: Time(i), End: Time(i + 5)}, Values: []Value{Int64(int64(i))}})
			continue
		}
		evs = append(evs, MustNew(pr, Time(i), Int64(int64(i)), Float64(float64(i)/4), String("travel"), Bool(i%2 == 0)))
	}
	return evs
}

func TestLineSinkIdleWritesOnlyBufferedBytes(t *testing.T) {
	var cw countingWriter
	s := NewLineSink(&cw)
	s.Idle()
	if w, _ := cw.counts(); w != 0 {
		t.Fatalf("Idle on an empty sink made %d writes, want 0", w)
	}
	s.Emit(sinkEvents(1)[0])
	s.Idle()
	s.Idle()
	if w, out := cw.counts(); w != 1 || !strings.HasSuffix(out, "\n") {
		t.Fatalf("after one Emit and two Idles: %d writes of %q, want one write of one line", w, out)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if w, _ := cw.counts(); w != 1 {
		t.Fatalf("Close with nothing buffered wrote (%d writes)", w)
	}
}

// writerBytes renders evs through the plain Writer path.
func writerBytes(t *testing.T, evs []*Event) string {
	t.Helper()
	var b bytes.Buffer
	w := NewWriter(&b)
	for _, e := range evs {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestLineSinkBytesMatchWriter(t *testing.T) {
	evs := sinkEvents(2000) // well past one 4 KiB buffer
	want := writerBytes(t, evs)
	var cw countingWriter
	s := NewLineSink(&cw)
	for i, e := range evs {
		s.Emit(e)
		if i%7 == 0 {
			s.Idle()
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, got := cw.counts(); got != want {
		t.Fatalf("sink bytes differ from Writer bytes (%d vs %d bytes)", len(got), len(want))
	}
}

func TestLineSinkConcurrentEmitIdle(t *testing.T) {
	evs := sinkEvents(500)
	var cw countingWriter
	s := NewLineSink(&cw)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, e := range evs {
				s.Emit(e)
				if (i+g)%5 == 0 {
					s.Idle()
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	valid := map[string]bool{}
	for _, ln := range strings.Split(strings.TrimSuffix(writerBytes(t, evs), "\n"), "\n") {
		valid[ln] = true
	}
	_, out := cw.counts()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 4*len(evs) {
		t.Fatalf("got %d lines, want %d", len(lines), 4*len(evs))
	}
	for _, ln := range lines {
		if !valid[ln] {
			t.Fatalf("interleaved or torn line %q", ln)
		}
	}
}

func TestLineSinkErrorIsSticky(t *testing.T) {
	evs := sinkEvents(2000)
	cw := countingWriter{failAfter: 100}
	s := NewLineSink(&cw)
	i := 0
	for ; i < len(evs) && s.Err() == nil; i++ {
		s.Emit(evs[i])
		s.Idle()
	}
	if !errors.Is(s.Err(), errSinkTest) {
		t.Fatalf("Err = %v after %d events, want the writer's error", s.Err(), i)
	}
	writes, _ := cw.counts()
	for ; i < len(evs); i++ {
		s.Emit(evs[i])
		s.Idle()
	}
	if err := s.Close(); !errors.Is(err, errSinkTest) {
		t.Fatalf("Close = %v, want the first write error", err)
	}
	if after, _ := cw.counts(); after != writes {
		t.Fatalf("sink kept writing after the first error: %d writes, then %d", writes, after)
	}
}
