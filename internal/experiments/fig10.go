package experiments

import (
	"fmt"
	"sort"

	"github.com/caesar-cep/caesar/internal/core"
	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/linearroad"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/runtime"
)

// fig10Run executes the benchmark once with output collection and
// returns the stats plus the generated input events.
func fig10Run(s Scale) (*runtime.Stats, []*event.Event, error) {
	m, err := model.CompileSource(linearroad.ModelSource(1))
	if err != nil {
		return nil, nil, err
	}
	eng, err := core.NewEngine(m, core.Config{
		PartitionBy:    linearroad.PartitionBy(),
		Workers:        s.Workers,
		CollectOutputs: true,
	})
	if err != nil {
		return nil, nil, err
	}
	cfg := linearroad.DefaultConfig()
	cfg.Roads = 1
	cfg.Segments = s.LRSegments
	cfg.Duration = s.LRDuration
	evs, err := linearroad.Generate(cfg, m.Registry)
	if err != nil {
		return nil, nil, err
	}
	st, err := eng.Run(event.NewSliceSource(evs))
	if err != nil {
		return nil, nil, err
	}
	return st, evs, nil
}

// Fig10a reproduces "events per road segment": for each segment of
// one road, the number of position reports, zero toll notifications,
// real toll notifications and accident warnings over the whole run
// (paper Fig. 10(a)).
func Fig10a(s Scale) (*Table, error) {
	st, input, err := fig10Run(s)
	if err != nil {
		return nil, err
	}
	type counts struct{ pos, zero, real, warn int }
	perSeg := map[int64]*counts{}
	at := func(seg int64) *counts {
		c := perSeg[seg]
		if c == nil {
			c = &counts{}
			perSeg[seg] = c
		}
		return c
	}
	for _, e := range input {
		if e.TypeName() == "PositionReport" {
			seg, _ := e.Get("seg")
			at(seg.Int).pos++
		}
	}
	for _, e := range st.Outputs {
		seg, _ := e.Get("seg")
		switch e.TypeName() {
		case "TollNotification":
			toll, _ := e.Get("toll")
			if toll.Int > 0 {
				at(seg.Int).real++
			} else {
				at(seg.Int).zero++
			}
		case "AccidentWarning":
			at(seg.Int).warn++
		}
	}
	segs := make([]int64, 0, len(perSeg))
	for seg := range perSeg {
		segs = append(segs, seg)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	t := &Table{
		ID:     "fig10a",
		Title:  "Events per road segment (1 road)",
		Header: []string{"segment", "position reports", "zero tolls", "real tolls", "accident warnings"},
	}
	for _, seg := range segs {
		c := perSeg[seg]
		t.AddRow(fmt.Sprint(seg), fmt.Sprint(c.pos), fmt.Sprint(c.zero), fmt.Sprint(c.real), fmt.Sprint(c.warn))
	}
	t.Notes = append(t.Notes,
		"accidents are scripted on segments with seg%5==2; congestion covers the final 60% of the run on every segment")
	return t, nil
}

// Fig10b reproduces "events per minute" for one accident segment:
// the per-minute counts visualize the application contexts — accident
// warnings only during the accident window, zero tolls before the
// congestion phase, real tolls during it (paper Fig. 10(b)).
func Fig10b(s Scale) (*Table, error) {
	st, input, err := fig10Run(s)
	if err != nil {
		return nil, err
	}
	const seg = 2 // scripted accident segment
	minutes := int(s.LRDuration/60) + 1
	type counts struct{ pos, zero, real, warn int }
	perMin := make([]counts, minutes)
	bucket := func(t event.Time) int {
		b := int(int64(t) / 60)
		if b >= minutes {
			b = minutes - 1
		}
		return b
	}
	for _, e := range input {
		if e.TypeName() != "PositionReport" {
			continue
		}
		sv, _ := e.Get("seg")
		if sv.Int != seg {
			continue
		}
		perMin[bucket(e.End())].pos++
	}
	for _, e := range st.Outputs {
		sv, _ := e.Get("seg")
		if sv.Int != seg {
			continue
		}
		b := bucket(e.End())
		switch e.TypeName() {
		case "TollNotification":
			toll, _ := e.Get("toll")
			if toll.Int > 0 {
				perMin[b].real++
			} else {
				perMin[b].zero++
			}
		case "AccidentWarning":
			perMin[b].warn++
		}
	}
	t := &Table{
		ID:     "fig10b",
		Title:  fmt.Sprintf("Events per minute, segment %d", seg),
		Header: []string{"minute", "position reports", "zero tolls", "real tolls", "accident warnings"},
	}
	for m := 0; m < minutes; m++ {
		c := perMin[m]
		t.AddRow(fmt.Sprint(m), fmt.Sprint(c.pos), fmt.Sprint(c.zero), fmt.Sprint(c.real), fmt.Sprint(c.warn))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("accident window scripted at [%d%%, %d%%) of the run; congestion from %d%%",
			17, 28, 40))
	return t, nil
}
