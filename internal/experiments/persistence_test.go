package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Short smoke run of the persistence benchmark: the segment engine
// completes the workload, actually flushes, and the JSON report
// round-trips with the keys ci.sh checks.
func TestRunPersistenceSmoke(t *testing.T) {
	cfg := PersistenceConfig{
		Clients:        4,
		ReadFrac:       0.5,
		Duration:       300 * time.Millisecond,
		Preload:        64,
		FlushThreshold: 4 << 10,
		Seed:           1,
	}
	r, err := RunPersistence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Figure != "persistence" {
		t.Fatalf("figure = %q", r.Figure)
	}
	m := r.Segment
	if m.Ops == 0 || m.OpsPerSec <= 0 {
		t.Fatalf("mode %q did no work: %+v", m.Mode, m)
	}
	if m.MaxStallMs < m.P99Ms {
		t.Fatalf("mode %q: max stall %.3fms below p99 %.3fms", m.Mode, m.MaxStallMs, m.P99Ms)
	}
	// The engine must exercise its flush machinery during the window, or
	// the stall numbers measure nothing.
	if m.Flushes == 0 {
		t.Fatalf("segment mode never flushed: %+v", m)
	}

	path := filepath.Join(t.TempDir(), "BENCH_persistence.json")
	if err := r.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back PersistenceResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Segment != r.Segment {
		t.Fatal("JSON round-trip mismatch")
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}
