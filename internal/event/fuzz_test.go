package event

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
)

// FuzzReader feeds arbitrary bytes to the wire-format parser through
// both stream protocols and the reference parser refDecode. The
// invariants: no panic on any input, the per-event heap path, the
// arena batch path and the reference decode the same events bit for
// bit, and all three reject the same inputs (the two paths with the
// same message). refDecode has no line limit, so on a line longer than
// the reader's it is checked only up to that line.
func FuzzReader(f *testing.F) {
	seeds := []string{
		"PR|30|7|55.5|travel|true\nToll|31|7\n",
		"Toll|10~40|9\n",
		"# header\n\nToll|5|3\n   \nToll|6|4\n",
		"Nope|1|2\n",
		"Toll|x|2\n",
		"Toll|9~3|2\n",
		"Toll|1|2|3\n",
		"Toll|1|abc\n",
		"PR|1|1|zz|travel|true\n",
		"PR|1|1|1.0|travel|yes\n",
		"Toll\n",
		"Toll|9223372036854775807|1\nToll|9223372036854775808|1\n",
		"PR|-5|+7|-55.5|x|false\n",
		"|||\n~\n|\n",
		"Toll|1|2\x00\nToll|1|2",
		"Toll|1|-9223372036854775808\nToll|1|+\nToll|1|\n",
		"PR|1|1|-0|x|true\nPR|1|1|2\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Add([]byte(strings.Repeat("Toll|1|2\n", maxLine/8+1)))                                  // short lines past maxLine in all
	f.Add([]byte("Toll|1|2\nPR|1|1|1|" + strings.Repeat("x", maxLine) + "|true\nToll|3|4\n")) // one line too long
	f.Fuzz(func(t *testing.T, data []byte) {
		reg, _, _ := codecRegistry()

		heap := NewReader(bytes.NewReader(data), reg)
		var perEvent []*Event
		for e := heap.Next(); e != nil; e = heap.Next() {
			perEvent = append(perEvent, e)
		}

		batch := NewReader(bytes.NewReader(data), reg)
		batch.Tune(16, 8) // cross slab and batch boundaries early
		var b Batch
		var batched []*Event
		for {
			more := batch.NextBatch(&b)
			batched = append(batched, b.Events...)
			if !more {
				break
			}
		}

		herr, berr := heap.Err(), batch.Err()
		ref, refOK := refDecode(reg, data)
		if errors.Is(herr, bufio.ErrTooLong) && len(ref) >= len(perEvent) {
			// refDecode has no line limit: it must agree up to the
			// line the reader refused as too long.
			ref, refOK = ref[:len(perEvent)], false
		}
		for name, got := range map[string][]*Event{"batch": batched, "reference": ref} {
			if len(perEvent) != len(got) {
				t.Fatalf("per-event path decoded %d events, %s %d", len(perEvent), name, len(got))
			}
			for i := range perEvent {
				if !sameBits(perEvent[i], got[i]) {
					t.Fatalf("event %d diverges:\n heap: %v\n%s: %v", i, perEvent[i], name, got[i])
				}
			}
		}
		if (herr == nil) != (berr == nil) || (herr == nil) != refOK {
			t.Fatalf("error divergence: per-event %v, batch %v, reference accepts %v", herr, berr, refOK)
		}
		if herr != nil && herr.Error() != berr.Error() {
			t.Fatalf("error message divergence:\n heap: %v\narena: %v", herr, berr)
		}
	})
}

// sameBits reports whether two events are identical bit for bit:
// stricter than Equal, it tells NaN payloads and 0.0 from -0.0 apart
// and holds NaN equal to itself.
func sameBits(a, b *Event) bool {
	if a.Schema != b.Schema || a.Time != b.Time || len(a.Values) != len(b.Values) {
		return false
	}
	for i, v := range a.Values {
		w := b.Values[i]
		if v.Kind != w.Kind || v.Int != w.Int || v.Str != w.Str ||
			math.Float64bits(v.Float) != math.Float64bits(w.Float) {
			return false
		}
	}
	return true
}

// refDecode is the decoder oracle: the wire format parsed line by line
// with strings.Split and strconv. It returns the events before the
// first malformed line and whether the whole input was accepted.
func refDecode(reg *Registry, data []byte) ([]*Event, bool) {
	var out []*Event
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Split(line, "|")
		if len(f) < 2 {
			return out, false
		}
		s, ok := reg.Lookup(f[0])
		start, end, isIv := strings.Cut(f[1], "~")
		t0, err0 := strconv.ParseInt(start, 10, 64)
		t1, err1 := t0, err0
		if isIv {
			t1, err1 = strconv.ParseInt(end, 10, 64)
		}
		if !ok || err0 != nil || err1 != nil || t0 > t1 || len(f)-2 != s.NumFields() {
			return out, false
		}
		e := &Event{Schema: s, Time: Interval{Start: Time(t0), End: Time(t1)}, Values: make([]Value, len(f)-2)}
		for i, raw := range f[2:] {
			var err error
			switch s.Field(i).Kind {
			case KindInt:
				e.Values[i].Int, err = strconv.ParseInt(raw, 10, 64)
			case KindFloat:
				e.Values[i].Float, err = strconv.ParseFloat(raw, 64)
			case KindString:
				e.Values[i].Str = raw
			case KindBool:
				if raw != "true" && raw != "false" {
					return out, false
				}
				e.Values[i] = Bool(raw == "true")
			}
			if err != nil {
				return out, false
			}
			e.Values[i].Kind = s.Field(i).Kind
		}
		out = append(out, e)
	}
	return out, true
}
