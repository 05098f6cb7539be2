package event

// Allocator hands out Event records for derived-event construction
// (DESIGN.md §3.8). The output path — projection, aggregation flush —
// builds one Event plus one Values region per derived event; routing
// that construction through an allocator lets the runtime hand the
// operators a per-worker slab arena while unit tests use the GC heap,
// without the operators knowing which they got.
//
// Contract: Alloc returns an Event with Schema, Time and a Values
// slice of exactly nvals slots set; Arrival is zero. The slots are
// NOT guaranteed to be zeroed (the arena recycles slabs), so the
// caller must assign every slot before the event escapes. Lifetime is
// allocator-defined: heap events live as long as they are referenced;
// arena events live until the owning arena reclaims past their
// occurrence end time.
type Allocator interface {
	Alloc(s *Schema, iv Interval, nvals int) *Event
}

// HeapAlloc is the GC-backed Allocator: every event is a fresh heap
// record, exempt from any reclamation. Operators executed outside an
// engine run (unit tests, ad-hoc evaluation) use it; engine runs always
// derive into per-worker slab arenas.
type HeapAlloc struct{}

// Alloc returns a fresh heap event with zeroed Values.
func (HeapAlloc) Alloc(s *Schema, iv Interval, nvals int) *Event {
	return &Event{Schema: s, Time: iv, Values: make([]Value, nvals)}
}

// Arena implements Allocator.
var _ Allocator = (*Arena)(nil)
var _ Allocator = HeapAlloc{}

// Clone copies an event to a fresh heap record (deep for the Values
// slice; Value strings are immutable and shared). The runtime clones
// arena-backed derived events into Stats.Outputs so collected results
// outlive slab reclamation and the next Run.
func Clone(e *Event) *Event {
	c := &Event{Schema: e.Schema, Time: e.Time, Arrival: e.Arrival}
	c.Values = make([]Value, len(e.Values))
	copy(c.Values, e.Values)
	return c
}
