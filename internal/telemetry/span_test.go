package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStageNames(t *testing.T) {
	want := []string{"decode", "queue_wait", "route", "ring_wait", "exec", "merge"}
	for st := Stage(0); st < NumStages; st++ {
		if st.String() != want[st] {
			t.Errorf("Stage(%d) = %q, want %q", st, st.String(), want[st])
		}
	}
	if got := Stage(99).String(); got != "stage99" {
		t.Errorf("out-of-range stage = %q", got)
	}
}

func TestSpanStampingFeedsHistograms(t *testing.T) {
	tr := NewStageTracer(1, 8)
	sp := tr.Start(42, 3)
	sp.Stamp(StageRoute, 1000)
	sp.Stamp(StageExec, 2000)
	sp.Stamp(StageExec, 500) // accumulates
	sp.SetCounts(4, 100)
	sp.SetEmitted(7)
	sp.Finish()

	if got := tr.StageSnapshot(StageRoute).Count; got != 1 {
		t.Errorf("route count = %d, want 1", got)
	}
	if got := tr.StageSnapshot(StageExec).Sum; got != 2500 {
		t.Errorf("exec sum = %d, want 2500", got)
	}
	// Unstamped stages must not observe (a zero sample would skew p50).
	if got := tr.StageSnapshot(StageDecode).Count; got != 0 {
		t.Errorf("decode count = %d, want 0", got)
	}
	if tr.Spans.Value() != 1 {
		t.Errorf("spans = %d, want 1", tr.Spans.Value())
	}

	tls := tr.Timelines()
	if len(tls) != 1 {
		t.Fatalf("timelines = %d, want 1", len(tls))
	}
	tl := tls[0]
	if tl.Tick != 42 || tl.Unit != 3 || tl.Partitions != 4 || tl.Events != 100 || tl.Emitted != 7 {
		t.Errorf("timeline shape = %+v", tl)
	}
	if tl.Stages[StageExec] != 2500 || tl.Stamped != (1<<StageRoute)|(1<<StageExec) {
		t.Errorf("timeline stages = %+v", tl)
	}
	if tl.At == 0 {
		t.Error("timeline completion time not stamped")
	}
}

func TestSpanMarkStampSinceTiles(t *testing.T) {
	tr := NewStageTracer(1, 8)
	sp := tr.Start(1, 0)
	sp.MarkAt(1000)
	sp.StampSince(StageRingWait, 1400)
	sp.StampSince(StageExec, 2400)
	if sp.durs[StageRingWait] != 400 || sp.durs[StageExec] != 1000 {
		t.Errorf("tiled durations = %v", sp.durs)
	}
	// A non-monotone clock (now < mark) clamps to zero but still marks
	// the stage observed.
	sp.MarkAt(5000)
	sp.StampSince(StageMerge, 4000)
	if sp.durs[StageMerge] != 0 || sp.stamped&(1<<StageMerge) == 0 {
		t.Errorf("negative stamp not clamped: durs=%v stamped=%b", sp.durs, sp.stamped)
	}
	sp.Finish()
}

func TestSampleTickOneInN(t *testing.T) {
	tr := NewStageTracer(4, 8)
	hits := 0
	for i := 0; i < 400; i++ {
		if tr.SampleTick() {
			hits++
		}
	}
	if hits != 100 {
		t.Errorf("sampled %d of 400 at rate 4, want 100", hits)
	}
	var nilTr *StageTracer
	if nilTr.SampleTick() {
		t.Error("nil tracer sampled")
	}
	if nilTr.Start(1, 0) != nil {
		t.Error("nil tracer returned a span")
	}
}

func TestNilSpanNoops(t *testing.T) {
	var sp *Span
	sp.Stamp(StageExec, 5)
	sp.MarkAt(1)
	sp.StampSince(StageExec, 2)
	sp.SetCounts(1, 2)
	sp.SetEmitted(3)
	sp.Finish()
	if sp.Tick() != 0 {
		t.Error("nil span tick")
	}
}

func TestRecorderWraparound(t *testing.T) {
	tr := NewStageTracer(1, 4)
	for i := 0; i < 10; i++ {
		sp := tr.Start(int64(i), 0)
		sp.Stamp(StageExec, int64(i))
		sp.Finish()
	}
	tls := tr.Timelines()
	if len(tls) != 4 {
		t.Fatalf("timelines = %d, want 4 (ring depth)", len(tls))
	}
	for i, tl := range tls {
		if want := int64(6 + i); tl.Tick != want {
			t.Errorf("timeline[%d].Tick = %d, want %d (oldest first)", i, tl.Tick, want)
		}
	}
}

func TestSpanPoolRecyclesWithoutAllocation(t *testing.T) {
	tr := NewStageTracer(1, 8)
	// Prime beyond the first slab so the pool has warmed free lists.
	spans := make([]*Span, 2*spanSlabSize)
	for i := range spans {
		spans[i] = tr.Start(int64(i), 0)
	}
	for _, sp := range spans {
		sp.Stamp(StageExec, 1)
		sp.Finish()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start(7, 1)
		sp.MarkAt(100)
		sp.StampSince(StageRingWait, 200)
		sp.StampSince(StageExec, 300)
		sp.SetCounts(2, 10)
		sp.SetEmitted(1)
		sp.Finish()
	})
	if allocs != 0 {
		t.Errorf("span lifecycle allocates %v/op, want 0", allocs)
	}
}

// TestRecorderConcurrent races finishers against snapshot readers;
// run under -race in CI. Timelines must never be torn: a timeline
// with stage bits set must carry the matching durations.
func TestRecorderConcurrent(t *testing.T) {
	tr := NewStageTracer(1, 16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(unit int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sp := tr.Start(int64(i), unit)
				sp.Stamp(StageExec, 12345)
				sp.Finish()
			}
		}(w)
	}
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, tl := range tr.Timelines() {
			if tl.Stamped&(1<<StageExec) != 0 && tl.Stages[StageExec] != 12345 {
				t.Errorf("torn timeline: %+v", tl)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestWriteTracez(t *testing.T) {
	var nilTr *StageTracer
	var b strings.Builder
	if err := nilTr.WriteTracez(&b); err != nil {
		t.Fatal(err)
	}
	var off map[string]any
	if err := json.Unmarshal([]byte(b.String()), &off); err != nil {
		t.Fatal(err)
	}
	if off["enabled"] != false {
		t.Errorf("nil tracer tracez = %v", off)
	}

	tr := NewStageTracer(2, 8)
	sp := tr.Start(5, 1)
	sp.Stamp(StageRoute, 800)
	sp.Stamp(StageExec, 1600)
	sp.SetCounts(3, 20)
	sp.Finish()

	b.Reset()
	if err := tr.WriteTracez(&b); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Enabled    bool                        `json:"enabled"`
		SampleRate int                         `json:"sample_rate"`
		Spans      int                         `json:"spans"`
		Stages     map[string]map[string]int64 `json:"stages"`
		Recent     []struct {
			Tick     int64            `json:"tick"`
			Unit     int              `json:"unit"`
			StagesNs map[string]int64 `json:"stages_ns"`
		} `json:"recent"`
	}
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatalf("tracez not JSON: %v\n%s", err, b.String())
	}
	if !got.Enabled || got.SampleRate != 2 || got.Spans != 1 {
		t.Errorf("tracez header = %+v", got)
	}
	if got.Stages["exec"]["count"] != 1 || got.Stages["exec"]["max_ns"] != 1600 {
		t.Errorf("tracez exec stage = %v", got.Stages)
	}
	if _, ok := got.Stages["decode"]; ok {
		t.Error("tracez reports unobserved stage")
	}
	if len(got.Recent) != 1 || got.Recent[0].Tick != 5 || got.Recent[0].StagesNs["route"] != 800 {
		t.Errorf("tracez recent = %+v", got.Recent)
	}
	if _, ok := got.Recent[0].StagesNs["merge"]; ok {
		t.Error("timeline reports unstamped stage")
	}
}

func TestStageTracerRegisterOn(t *testing.T) {
	tr := NewStageTracer(1, 8)
	sp := tr.Start(1, 0)
	sp.Stamp(StageExec, 1000)
	sp.Finish()
	reg := NewRegistry()
	tr.RegisterOn(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `caesar_stage_ns{stage="exec",quantile="0.5"}`) {
		t.Errorf("stage histogram not exposed:\n%s", out)
	}
	if !strings.Contains(out, "caesar_trace_spans_total 1") {
		t.Errorf("span counter not exposed:\n%s", out)
	}
	// Nil-safety on both sides.
	var nilTr *StageTracer
	nilTr.RegisterOn(reg)
	tr.RegisterOn(nil)
}

func TestStageTracerDefaults(t *testing.T) {
	tr := NewStageTracer(0, 0)
	if tr.SampleRate() != DefaultSampleRate {
		t.Errorf("default rate = %d", tr.SampleRate())
	}
	if len(tr.slots) != DefaultRecorderDepth {
		t.Errorf("default depth = %d", len(tr.slots))
	}
	// Depth rounds up to a power of two.
	if tr5 := NewStageTracer(1, 5); len(tr5.slots) != 8 {
		t.Errorf("depth 5 rounded to %d, want 8", len(tr5.slots))
	}
	var nilTr *StageTracer
	if nilTr.SampleRate() != 0 {
		t.Error("nil tracer rate")
	}
	if nilTr.Timelines() != nil {
		t.Error("nil tracer timelines")
	}
	if (nilTr.StageSnapshot(StageExec) != HistogramSnapshot{}) {
		t.Error("nil tracer snapshot")
	}
}
