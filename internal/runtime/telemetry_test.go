package runtime

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

// TestTelemetryEndToEnd runs a two-PE world with the telemetry subsystem
// on: lifecycle events must land in the rings, the flight recorder must
// hold the latency digests (every task stamped under a session), and the
// timeline written at shutdown must be valid Chrome trace JSON.
func TestTelemetryEndToEnd(t *testing.T) {
	testCounter.Store(0)
	path := filepath.Join(t.TempDir(), "timeline.json")
	cfg := Config{PEs: 2, WorkersPerPE: 2, Lamellae: LamellaeSim,
		Telemetry: true, TraceOut: path}
	var report Stats
	var snap DiagSnapshot
	err := Run(cfg, func(w *World) {
		if w.MyPE() == 0 {
			for i := 0; i < 200; i++ {
				w.ExecAM(1, &incrAM{Delta: 1})
			}
			if _, err := BlockOn(w, w.ExecAMReturn(1, &echoAM{X: 42})); err != nil {
				panic(err)
			}
		}
		w.WaitAll()
		w.Barrier()
		if w.MyPE() == 0 {
			report = w.Stats()
			snap = w.DiagSnapshot()
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if telemetry.Enabled() || telemetry.C() != nil {
		t.Fatal("telemetry session must end with the world")
	}

	if report.Issued != 201 || report.Completed != 201 {
		t.Errorf("ams = %d/%d, want 201/201", report.Completed, report.Issued)
	}
	if report.BatchesSent == 0 {
		t.Error("no wire batches counted")
	}
	var reasons uint64
	for _, n := range report.BatchFlushReasons {
		reasons += n
	}
	if reasons != report.BatchesSent {
		t.Errorf("flush reasons sum to %d, batches sent %d", reasons, report.BatchesSent)
	}
	hists := snap.Recorder.PEs[0].Hists
	if hists["am_round_trip_ns"].Count != 1 {
		t.Errorf("AM round trips recorded = %d, want 1", hists["am_round_trip_ns"].Count)
	}
	if hists["task_queue_wait_ns"].Count == 0 {
		t.Error("no task queue-wait latency recorded")
	}
	if hists["batch_age_ns"].Count == 0 {
		t.Error("no batch-age latency recorded")
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("timeline not written: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if n, ok := ev["name"].(string); ok {
			names[n] = true
		}
	}
	for _, want := range []string{"task.run", "am.issue", "am.exec", "agg.flush", "fabric.put", "process_name"} {
		if !names[want] {
			t.Errorf("timeline missing %q events (have %v)", want, names)
		}
	}
}

// TestTelemetryDisabledIsInert checks the default path: no session and
// so no event rings, while the always-on surfaces still work — the
// diagnostic snapshot carries Stats counters and non-empty recorder
// digests.
func TestTelemetryDisabledIsInert(t *testing.T) {
	testCounter.Store(0)
	var snap DiagSnapshot
	var rings bool
	err := Run(Config{PEs: 2, WorkersPerPE: 1, Lamellae: LamellaeSim}, func(w *World) {
		if w.MyPE() == 0 {
			for i := 0; i < 50; i++ {
				w.ExecAM(1, &incrAM{Delta: 1})
			}
			for i := 0; i < 5; i++ {
				if _, err := BlockOn(w, w.ExecAMReturn(1, &echoAM{X: 1})); err != nil {
					panic(err)
				}
			}
		}
		w.WaitAll()
		w.Barrier()
		if w.MyPE() == 0 {
			snap = w.DiagSnapshot()
			rings = telemetry.C() != nil
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if telemetry.Enabled() || rings {
		t.Fatal("telemetry session (event rings) live without being configured")
	}
	s := snap.Worlds[0].Stats
	if s.Issued != 55 || s.Completed != 55 {
		t.Errorf("snapshot ams = %d/%d, want 55/55", s.Completed, s.Issued)
	}
	if s.BatchesSent == 0 {
		t.Error("batch counters must work without telemetry")
	}
	hists := snap.Recorder.PEs[0].Hists
	if rt := hists["am_round_trip_ns"]; rt.Count != 5 || rt.P50Ns <= 0 {
		t.Errorf("round-trip digest without a session = %+v, want 5 samples", rt)
	}
	if hists["batch_age_ns"].Count == 0 {
		t.Error("batch-age digest empty without a session")
	}
}

// TestApplyEnvTelemetry checks the LAMELLAR_TRACE* environment knobs.
func TestApplyEnvTelemetry(t *testing.T) {
	t.Setenv("LAMELLAR_TRACE", "1")
	t.Setenv("LAMELLAR_TRACE_RING", "2048")
	c := Config{}.ApplyEnv()
	if !c.Telemetry || c.TraceRingCap != 2048 {
		t.Errorf("ApplyEnv = %+v", c)
	}
	t.Setenv("LAMELLAR_TRACE", "")
	t.Setenv("LAMELLAR_TRACE_OUT", "/tmp/x.json")
	c = Config{}.ApplyEnv()
	if !c.Telemetry || c.TraceOut != "/tmp/x.json" {
		t.Errorf("TRACE_OUT must imply telemetry: %+v", c)
	}
}
