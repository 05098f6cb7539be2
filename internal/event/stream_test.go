package event

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSliceSourceOrderAndReset(t *testing.T) {
	s := testSchema(t)
	evs := []*Event{
		MustNew(s, 1, Int64(1), Int64(1), Float64(1)),
		MustNew(s, 2, Int64(2), Int64(1), Float64(1)),
		MustNew(s, 2, Int64(3), Int64(1), Float64(1)),
	}
	src := NewSliceSource(evs)
	if src.Len() != 3 {
		t.Fatalf("Len = %d", src.Len())
	}
	got := Drain(src)
	if len(got) != 3 || got[0] != evs[0] {
		t.Fatalf("Drain returned %d events", len(got))
	}
	if src.Next() != nil {
		t.Error("exhausted source returned event")
	}
	src.Reset()
	if e := src.Next(); e != evs[0] {
		t.Error("Reset did not rewind")
	}
}

func TestSliceSourcePanicsOnDisorder(t *testing.T) {
	s := testSchema(t)
	src := NewSliceSource([]*Event{
		MustNew(s, 5, Int64(1), Int64(1), Float64(1)),
		MustNew(s, 4, Int64(2), Int64(1), Float64(1)),
	})
	src.Next()
	defer func() {
		if recover() == nil {
			t.Error("out-of-order event did not panic")
		}
	}()
	src.Next()
}

func TestSortByTimeStable(t *testing.T) {
	s := testSchema(t)
	evs := []*Event{
		MustNew(s, 3, Int64(1), Int64(1), Float64(1)),
		MustNew(s, 1, Int64(2), Int64(1), Float64(1)),
		MustNew(s, 3, Int64(3), Int64(1), Float64(1)),
		MustNew(s, 2, Int64(4), Int64(1), Float64(1)),
	}
	SortByTime(evs)
	wantVids := []int64{2, 4, 1, 3} // stable: vid 1 stays before vid 3 at t=3
	for i, want := range wantVids {
		if evs[i].At(0).Int != want {
			t.Fatalf("position %d: vid=%d, want %d", i, evs[i].At(0).Int, want)
		}
	}
}

func codecRegistry() (*Registry, *Schema, *Schema) {
	reg := NewRegistry()
	pr := MustSchema("PR",
		Field{Name: "vid", Kind: KindInt},
		Field{Name: "speed", Kind: KindFloat},
		Field{Name: "lane", Kind: KindString},
		Field{Name: "ok", Kind: KindBool})
	toll := MustSchema("Toll", Field{Name: "vid", Kind: KindInt})
	reg.MustRegister(pr)
	reg.MustRegister(toll)
	return reg, pr, toll
}

func TestCodecRoundTrip(t *testing.T) {
	reg, pr, toll := codecRegistry()
	in := []*Event{
		MustNew(pr, 30, Int64(7), Float64(55.5), String("travel"), Bool(true)),
		MustNew(toll, 31, Int64(7)),
		{Schema: toll, Time: Interval{Start: 10, End: 40}, Values: []Value{Int64(9)}},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, e := range in {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf, reg)
	var out []*Event
	for e := r.Next(); e != nil; e = r.Next() {
		out = append(out, e)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(out) != len(in) {
		t.Fatalf("round trip returned %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if !in[i].Equal(out[i]) {
			t.Errorf("event %d mismatch:\n in: %v\nout: %v", i, in[i], out[i])
		}
	}
}

func TestReaderSkipsCommentsAndBlanks(t *testing.T) {
	reg, _, _ := codecRegistry()
	input := "# header\n\nToll|5|3\n   \nToll|6|4\n"
	r := NewReader(strings.NewReader(input), reg)
	out := Drain(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(out) != 2 || out[0].At(0).Int != 3 || out[1].At(0).Int != 4 {
		t.Fatalf("got %v", out)
	}
}

// TestReaderErrors pins every decoder error message byte for byte:
// each one reaches TCP clients as an #error line. Precedence is the
// time field first, then arity, then the first bad value.
func TestReaderErrors(t *testing.T) {
	reg, _, _ := codecRegistry()
	cases := []struct {
		name, in, want string
	}{
		{"unknown type", "Nope|1|2\n", `event: line 1: unknown event type "Nope"`},
		{"bad time", "Toll|x|2\n", `event: line 1: bad time "x"`},
		{"bad interval", "Toll|9~3|2\n", `event: line 1: bad time interval "9~3"`},
		{"arity", "Toll|1|2|3\n", `event: line 1: Toll expects 1 values, got 2`},
		{"too few", "PR|1|1|2\n", `event: line 1: PR expects 4 values, got 2`},
		{"no values", "Toll|1\n", `event: line 1: Toll expects 1 values, got 0`},
		{"bad int", "Toll|1|abc\n", `event: line 1: Toll.vid: bad int "abc"`},
		{"bad float", "PR|1|1|zz|travel|true\n", `event: line 1: PR.speed: bad float "zz"`},
		{"bad bool", "PR|1|1|1.0|travel|yes\n", `event: line 1: PR.ok: bad bool "yes"`},
		{"no fields", "Toll\n", `event: line 1: expected TypeName|time|values..., got "Toll"`},
		{"arity before value", "Toll|1|abc|5\n", `event: line 1: Toll expects 1 values, got 2`},
		{"time first", "Toll|x|abc|5\n", `event: line 1: bad time "x"`},
		{"empty int", "Toll|1|\n", `event: line 1: Toll.vid: bad int ""`},
		{"sign only", "Toll|1|+\n", `event: line 1: Toll.vid: bad int "+"`},
		{"overflow", "Toll|1|9223372036854775808\n", `event: line 1: Toll.vid: bad int "9223372036854775808"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewReader(strings.NewReader(c.in), reg)
			if e := r.Next(); e != nil {
				t.Fatalf("decoded malformed input into %v", e)
			}
			if r.Err() == nil || r.Err().Error() != c.want {
				t.Errorf("Err() = %v, want %s", r.Err(), c.want)
			}
		})
	}
	r := NewReader(strings.NewReader("Toll|1|-9223372036854775808\n"), reg)
	if e := r.Next(); e == nil || e.At(0).Int != math.MinInt64 || r.Err() != nil {
		t.Errorf("MinInt64 decodes as %v, err %v", e, r.Err())
	}
}

// TestCodecRoundTripProperty encodes randomly generated events and
// checks decode(encode(e)) == e.
func TestCodecRoundTripProperty(t *testing.T) {
	reg, pr, _ := codecRegistry()
	f := func(vid int64, speed float64, lane uint8, ok bool, tm int16) bool {
		lanes := []string{"travel", "exit", "entry", "middle"}
		e := MustNew(pr, Time(tm),
			Int64(vid), Float64(speed), String(lanes[int(lane)%len(lanes)]), Bool(ok))
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if w.Write(e) != nil || w.Flush() != nil {
			return false
		}
		r := NewReader(&buf, reg)
		got := r.Next()
		return got != nil && r.Err() == nil && e.Equal(got)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDrainEmpty(t *testing.T) {
	if got := Drain(NewSliceSource(nil)); got != nil {
		t.Errorf("Drain(empty) = %v", got)
	}
}
