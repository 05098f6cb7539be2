package main

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
)

// tick is one application-time unit of an input stream: the byte
// range of all lines sharing a timestamp.
type tick struct {
	time     int64
	off, end int
}

// stream is a pre-encoded input, split into ticks before timing
// starts so a paced pass only sleeps and writes.
type stream struct {
	data   []byte
	ticks  []tick
	events int
}

// lineTime returns the type name and the application time of one
// event line `Type|time|v...`; an interval `start~end` reports its
// end, which is the instant the engine orders the event by.
func lineTime(line []byte) (typ []byte, t int64, err error) {
	p1 := bytes.IndexByte(line, '|')
	if p1 <= 0 {
		return nil, 0, fmt.Errorf("no type field in %q", line)
	}
	rest := line[p1+1:]
	if p2 := bytes.IndexByte(rest, '|'); p2 >= 0 {
		rest = rest[:p2]
	}
	if tilde := bytes.IndexByte(rest, '~'); tilde >= 0 {
		rest = rest[tilde+1:]
	}
	t, err = strconv.ParseInt(string(rest), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("bad time field in %q", line)
	}
	return line[:p1], t, nil
}

// splitTicks indexes data by tick and checks that time never goes
// back, which the engine requires of every connection.
func splitTicks(data []byte) (*stream, error) {
	s := &stream{data: data}
	for pos := 0; pos < len(data); {
		nl := bytes.IndexByte(data[pos:], '\n')
		if nl < 0 {
			return nil, fmt.Errorf("input does not end in a newline")
		}
		_, t, err := lineTime(data[pos : pos+nl])
		if err != nil {
			return nil, err
		}
		if n := len(s.ticks); n == 0 || s.ticks[n-1].time != t {
			if n > 0 && t < s.ticks[n-1].time {
				return nil, fmt.Errorf("time goes back from %d to %d at event %d", s.ticks[n-1].time, t, s.events)
			}
			s.ticks = append(s.ticks, tick{time: t, off: pos})
		}
		pos += nl + 1
		s.ticks[len(s.ticks)-1].end = pos
		s.events++
	}
	if s.events == 0 {
		return nil, fmt.Errorf("empty input")
	}
	return s, nil
}

// closingTick returns the index of the first tick whose time is later
// than t: the engine cannot close application time t, and so cannot
// release a result stamped t, before that tick's first event arrives.
// len(ticks) stands for the half-close that ends the stream.
func (s *stream) closingTick(t int64) int {
	return sort.Search(len(s.ticks), func(i int) bool { return s.ticks[i].time > t })
}
