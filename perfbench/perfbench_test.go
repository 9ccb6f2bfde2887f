package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/store"
)

// One stalled call must charge lateness to every request scheduled
// behind it: latency runs from the intended send time, so the queueing
// the stall caused is not hidden.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const interval = 5 * time.Millisecond
	stall := 60 * time.Millisecond
	samples := runOpenLoop(time.Now(), 10, interval, 1, func(i int) error {
		if i == 2 {
			time.Sleep(stall)
		}
		return nil
	})
	if late := samples[1].Late(); late > stall/2 {
		t.Fatalf("request 1 ran %v late before the stall", late)
	}
	for i := 3; i < len(samples); i++ {
		s := samples[i]
		// Request i was due (i-2)*interval after the stalled one started
		// and could not be sent before the stall ended.
		wantLate := stall - time.Duration(i-2)*interval
		if s.Late() < wantLate-2*time.Millisecond {
			t.Errorf("request %d: late %v, want at least %v", i, s.Late(), wantLate)
		}
		if s.Latency() < s.Late() || s.Latency() < s.RoundTrip() {
			t.Errorf("request %d: latency %v does not include the wait (late %v, round trip %v)", i, s.Latency(), s.Late(), s.RoundTrip())
		}
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{1000, 99}, {800, 98.75}, {2000, 99.5}, {400, 97.5}} {
		q, ok := tailPercentile(tc.n)
		if !ok || math.Abs(q-tc.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v", tc.n, q, ok, tc.want)
		}
	}
	if _, ok := tailPercentile(10); ok {
		t.Error("10 samples cannot have 10 beyond any percentile")
	}
	for n := 11; n <= 3000; n++ {
		q, _ := tailPercentile(n)
		if b := beyond(n, q); b < minTail {
			t.Fatalf("n=%d: p%v has %d samples beyond it, want >= %d", n, q, b, minTail)
		}
		if b := beyond(n, q+100/float64(n)); b >= minTail {
			t.Fatalf("n=%d: a higher percentile still has %d beyond; p%v is not the highest", n, b, q)
		}
	}
	d := newDist([]float64{3, 1, 2})
	if got := d.Tail(); got != "n/a (n=3)" {
		t.Errorf("Tail() = %q", got)
	}
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if got := newDist(vals).Tail(); got != "p99=990.000 ms (n=1000)" {
		t.Errorf("Tail() = %q", got)
	}
}

// tiny shrinks a workload so a full run takes seconds.
func tiny(t *testing.T, name string, trace bool) options {
	t.Helper()
	w := workloads[name]
	w.preload = min(w.preload, 300)
	if w.tail {
		// One flushed chunk per shard, so the reopen finds segments,
		// plus the unflushed tail.
		w.preload = preloadChunk*w.shards + 100
	}
	w.uploadRate = min(w.uploadRate, 20)
	w.searchRate = min(w.searchRate, 30)
	return options{workload: w, seed: 3, seconds: 1, trace: trace, setups: 2,
		trainImgs: 6, workdir: t.TempDir(), commit: "test"}
}

// A smoke run of each workload emits every named metric, end-to-end and
// per layer, and passes its own checks.
func TestSmokeEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("full set-up and timed phase per workload")
	}
	bench := readBenchmarkJSON(t)
	for _, name := range []string{"upload", "search", "mixed"} {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := run(context.Background(), tiny(t, name, true), &out)
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.correct, res.failed, res.attempted, out.String())
			}
			for _, m := range bench.EndToEnd {
				v, ok := res.endToEnd[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("end-to-end %s: got %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
				}
			}
			for _, m := range bench.PerLayer {
				v, ok := res.layers[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
				}
			}
			// The report prints the rest of the end-to-end figures; p99s
			// appear only with 1000+ samples, so the tiny run shows the
			// tails line instead.
			named := []string{"setup_s", "latency_p50_ms", "latency_p90_ms", "visible_p50_ms", "recovery_s",
				"disk_bytes_per_user_byte", "heap_mb", "heap_phase_mb", "recall_at_10", "failed_ratio", "tails: "}
			if name != "search" {
				named = append(named, "upload_ack_p50_ms")
			}
			if name != "upload" {
				named = append(named, "search_p50_ms")
			}
			for _, n := range named {
				if !bytes.Contains(out.Bytes(), []byte("\n  "+n+" ")) && !bytes.Contains(out.Bytes(), []byte("\n"+n)) {
					t.Errorf("report lacks %s:\n%s", n, out.String())
				}
			}
			// Metrics a workload defines must not read 0: a span join
			// that stopped matching would otherwise pass unnoticed.
			for _, n := range nonZero(name) {
				if v := res.layers[n].Value; v == 0 {
					t.Errorf("per-layer %s reads 0 on %s", n, name)
				}
			}
			for _, n := range endToEndNames {
				if v := res.endToEnd[n].Value; v == 0 {
					t.Errorf("end-to-end %s reads 0 on %s", n, name)
				}
			}
			if len(res.endToEnd) != len(bench.EndToEnd) || len(res.layers) != len(bench.PerLayer) {
				t.Errorf("emitted %d end-to-end and %d per-layer metrics; BENCHMARK.json lists %d and %d",
					len(res.endToEnd), len(res.layers), len(bench.EndToEnd), len(bench.PerLayer))
			}
		})
	}
}

// nonZero names the per-layer metrics that every run of the workload
// exercises. The canaries upload and search through all five shapes in
// every workload, so the handler, ingest, extraction and store spans
// always have calls; the timed-phase ratios exist where the phase has
// requests of their kind.
func nonZero(workload string) []string {
	ns := []string{
		"api.upload.handler_ms", "api.upload.body_bytes", "api.search.handler_ms", "api.wire_ms",
		"ingest.persist_ms", "ingest.queue_wait_ms", "analysis.extract_ms",
		"feature.color_hist_ms", "feature.sift_bow_ms", "feature.cnn_ms",
		"store.add_image_ms", "store.put_feature_ms", "store.write_max_ms",
		"store.search_visual_ms", "store.search_hybrid_ms", "store.search_scene_ms",
		"store.search_nearest_ms", "store.search_text_ms", "store.search_time_ms",
		"query.self_ms", "runtime.alloc_bytes_per_op",
		"self.api_ms", "self.ingest_ms", "self.analysis_ms", "self.feature_ms", "self.query_ms", "self.store_ms",
	}
	if workload != "search" {
		ns = append(ns, "ingest.backlog_max")
	}
	if workload == "upload" {
		ns = append(ns, "store.wal_ops_per_batch")
	}
	if workload != "upload" {
		ns = append(ns, "query.store_calls_per_search", "query.candidates_per_result", "store.segments")
	}
	return ns
}

// dropNearest is a wrong backend: it loses the last result of every
// nearest-K search.
type dropNearest struct{ store.Backend }

func (d dropNearest) SearchNearest(ctx context.Context, p geo.Point, k int) ([]uint64, error) {
	ids, err := d.Backend.SearchNearest(ctx, p, k)
	if len(ids) > 0 {
		ids = ids[:len(ids)-1]
	}
	return ids, err
}

// The checks are not vacuous: a backend that drops one result fails the
// run.
func TestChecksCatchDroppedResult(t *testing.T) {
	if testing.Short() {
		t.Skip("full set-up and timed phase")
	}
	o := tiny(t, "search", false)
	o.wrap = func(b store.Backend) store.Backend { return dropNearest{b} }
	var out bytes.Buffer
	res, err := run(context.Background(), o, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if res.correct || res.failed == 0 {
		t.Fatalf("dropping a nearest result went unnoticed: correct=%v failed=%d\n%s", res.correct, res.failed, out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("nearest")) {
		t.Errorf("failure report does not name the nearest search:\n%s", out.String())
	}
}

// beyond counts the samples strictly above the q-th percentile's rank.
func beyond(n int, q float64) int {
	r := rank(n, q)
	if r < 0 {
		r = 0
	}
	return n - 1 - r
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return b
}
