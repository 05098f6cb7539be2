package caesar

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/caesar-cep/caesar/internal/telemetry"
)

const thermostatSrc = `
EVENT Reading(sensor int, temp int, sec int)
EVENT Alarm(sensor int, temp int)

CONTEXT normal DEFAULT
CONTEXT overheated

SWITCH CONTEXT overheated
PATTERN Reading r
WHERE r.temp > 90
CONTEXT normal

SWITCH CONTEXT normal
PATTERN Reading r
WHERE r.temp < 70
CONTEXT overheated

DERIVE Alarm(r.sensor, r.temp)
PATTERN Reading r
CONTEXT overheated
`

func thermostatStream(t *testing.T, eng *Engine) *SliceSource {
	t.Helper()
	s, ok := eng.Registry().Lookup("Reading")
	if !ok {
		t.Fatal("no Reading schema")
	}
	mk := func(ts Time, sensor, temp int64) *Event {
		e, err := NewEvent(s, ts, Int64(sensor), Int64(temp), Int64(int64(ts)))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	evs := []*Event{
		mk(1, 7, 50),
		mk(2, 7, 95), // switch to overheated (effective for t>2)
		mk(3, 7, 96), // alarm
		mk(4, 7, 92), // alarm
		mk(5, 7, 60), // alarm (still overheated at t=5), then switch back
		mk(6, 7, 55), // no alarm
	}
	SortByTime(evs)
	return NewSliceSource(evs)
}

func TestPublicAPIQuickstart(t *testing.T) {
	eng, err := NewFromSource(thermostatSrc, Config{
		PartitionBy:    []string{"sensor"},
		Workers:        2,
		CollectOutputs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run(thermostatStream(t, eng))
	if err != nil {
		t.Fatal(err)
	}
	if st.PerType["Alarm"] != 3 {
		t.Fatalf("alarms = %d, want 3 (outputs %v)", st.PerType["Alarm"], st.Outputs)
	}
	if st.SuspendedSkips == 0 {
		t.Error("alarm plan never suspended in normal context")
	}
}

// TestTelemetryFacade exercises telemetry through the public Config:
// a registry wired in, scraped over the HTTP handler after a run.
func TestTelemetryFacade(t *testing.T) {
	reg := telemetry.NewRegistry()
	eng, err := NewFromSource(thermostatSrc, Config{
		PartitionBy: []string{"sensor"},
		Workers:     2,
		Telemetry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run(thermostatStream(t, eng))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(telemetry.Handler(reg))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"caesar_events_total 6",
		`caesar_context_activations_total{context="overheated"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if cs := st.Contexts["overheated"]; cs.Activations != 1 || cs.Suspensions != 1 {
		t.Errorf("overheated window stats = %+v", cs)
	}
	if st.TxnMax <= 0 {
		t.Error("txn timing not populated with a registry attached")
	}
}

func TestParseModelAndNew(t *testing.T) {
	m, err := ParseModel(thermostatSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Queries) != 3 {
		t.Fatalf("queries = %d", len(m.Queries))
	}
	eng, err := New(m, Config{PartitionBy: []string{"sensor"}})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Model() != m {
		t.Error("engine model mismatch")
	}
	if eng.Plan() == nil || len(eng.Plan().Queries) != 3 {
		t.Error("plan missing")
	}
}

func TestParseModelError(t *testing.T) {
	_, err := ParseModel("EVENT A(x int)\nDERIVE A(1)\nPATTERN A a")
	if err == nil || !strings.Contains(err.Error(), "context") {
		t.Errorf("bad model accepted: %v", err)
	}
}

func TestConfigValidationAtFacade(t *testing.T) {
	if _, err := NewFromSource(thermostatSrc, Config{ContextIndependent: true, Sharing: true}); err == nil {
		t.Error("CI+sharing accepted")
	}
	if _, err := NewFromSource(thermostatSrc, Config{ContextIndependent: true, DisablePushDown: true}); err == nil {
		t.Error("CI+disable-pushdown accepted")
	}
}

func TestEngineReusableAcrossRuns(t *testing.T) {
	eng, err := NewFromSource(thermostatSrc, Config{
		PartitionBy:    []string{"sensor"},
		CollectOutputs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st1, err := eng.Run(thermostatStream(t, eng))
	if err != nil {
		t.Fatal(err)
	}
	st2, err := eng.Run(thermostatStream(t, eng))
	if err != nil {
		t.Fatal(err)
	}
	if st1.OutputCount != st2.OutputCount {
		t.Errorf("runs differ: %d vs %d outputs", st1.OutputCount, st2.OutputCount)
	}
}

func TestLinearRoadFacade(t *testing.T) {
	eng, err := NewFromSource(LinearRoadModel(1), Config{
		PartitionBy:    LinearRoadPartitionBy(),
		CollectOutputs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := LinearRoadDefaults()
	cfg.Segments = 4
	cfg.Duration = 600
	evs, err := GenerateLinearRoad(cfg, eng.Registry())
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run(NewSliceSource(evs))
	if err != nil {
		t.Fatal(err)
	}
	if st.PerType["TollNotification"] == 0 {
		t.Error("no tolls")
	}
	ss := eng.SharingStats()
	if ss.Before != ss.After {
		t.Errorf("sharing off but stats shrank: %+v", ss)
	}
}

func TestPAMFacade(t *testing.T) {
	eng, err := NewFromSource(PAMModel(2), Config{
		PartitionBy:    PAMPartitionBy(),
		Sharing:        true,
		CollectOutputs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := PAMDefaults()
	cfg.Duration = 600
	evs, err := GeneratePAM(cfg, eng.Registry())
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run(NewSliceSource(evs))
	if err != nil {
		t.Fatal(err)
	}
	if st.OutputCount == 0 {
		t.Error("no outputs")
	}
}
