package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/imagesim"
	"repro/internal/store"
)

// Persistence benchmark (`tvdp-bench -figure persistence`): a sustained
// mixed read/write workload over a preloaded segment-engine store, with
// memtable flushes and background compactions landing inside the
// measured window. The headline is the tail — p99 and the worst
// single-op stall — because the freeze-swap holds the six subsystem
// locks for O(queued frames) regardless of corpus size, and a
// regression there shows up as a stall, not as lost throughput.

// PersistenceConfig sizes one persistence benchmark run.
type PersistenceConfig struct {
	// Clients is the number of concurrent workload goroutines.
	Clients int
	// ReadFrac in [0,1] is the probability an op is a read.
	ReadFrac float64
	// Duration is the measured wall-clock window.
	Duration time.Duration
	// Preload seeds the store with this many images before timing.
	Preload int
	// TargetOps paces the workload at this many total ops/sec across all
	// clients (0 = unpaced: every client issues ops back-to-back). Paced
	// runs are open-loop: the offered load sits inside the engine's
	// capacity, each op's latency counts from its intended send time, and
	// a latency spike is an engine stall, not queueing at saturation. It
	// also matches the platform's reality: cameras upload at their own
	// rate; a persistence stall shows up as a log-jam, not reduced
	// throughput.
	TargetOps int
	// FlushThreshold is the memtable flush trigger in WAL bytes.
	FlushThreshold int64
	// Seed drives the per-client workload RNGs.
	Seed int64
}

// DefaultPersistenceConfig mirrors the serving figure's unsynced regime:
// 8 clients, evenly mixed ops, 8000 preloaded images, a segment flush
// every 128 KiB of WAL, paced at 4000 ops/sec — the load the historical
// snapshot-vs-segment comparison ran at, so the live row stays
// comparable with it.
func DefaultPersistenceConfig() PersistenceConfig {
	return PersistenceConfig{
		Clients:        8,
		ReadFrac:       0.5,
		Duration:       2 * time.Second,
		Preload:        8000,
		TargetOps:      4000,
		FlushThreshold: 128 << 10,
		Seed:           1,
	}
}

// PersistenceModeResult is the engine's measurements.
type PersistenceModeResult struct {
	Mode      string  `json:"mode"`
	Ops       uint64  `json:"ops"`
	Reads     uint64  `json:"reads"`
	Writes    uint64  `json:"writes"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	// MaxStallMs is the worst single-op latency observed — the direct
	// measure of the stop-the-world stall this figure is about.
	MaxStallMs float64 `json:"max_stall_ms"`
	// Flushes / Compactions count the engine's background persistence
	// operations during the measured window.
	Flushes     uint64  `json:"flushes"`
	Compactions uint64  `json:"compactions"`
	Segments    int     `json:"segments"`
	ElapsedS    float64 `json:"elapsed_s"`
}

// PersistenceResult is the run written to BENCH_persistence.json.
type PersistenceResult struct {
	Figure    string                `json:"figure"`
	Clients   int                   `json:"clients"`
	ReadFrac  float64               `json:"read_frac"`
	Preload   int                   `json:"preload"`
	TargetOps int                   `json:"target_ops"`
	Segment   PersistenceModeResult `json:"segment"`
}

func runPersistenceSegment(cfg PersistenceConfig) (PersistenceModeResult, error) {
	dir, err := os.MkdirTemp("", "tvdp-persistence-*")
	if err != nil {
		return PersistenceModeResult{}, err
	}
	defer os.RemoveAll(dir)
	scfg := store.DefaultConfig()
	scfg.Dir = dir
	scfg.FlushThreshold = cfg.FlushThreshold
	st, err := store.Open(scfg)
	if err != nil {
		return PersistenceModeResult{}, err
	}
	defer st.Close()

	// Tiny raster, as in serving.go: the figure measures persistence
	// stalls, not payload encode cost.
	px := imagesim.MustNew(4, 4)
	px.Fill(imagesim.RGB{R: 90, G: 110, B: 130})
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.Preload; i++ {
		if _, err := st.AddImage(servingImage(seedRng, px)); err != nil {
			return PersistenceModeResult{}, err
		}
	}
	preStats := st.EngineStats()

	type clientOut struct {
		lat           []time.Duration
		reads, writes uint64
		err           error
	}
	outs := make([]clientOut, cfg.Clients)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	sw := startStopwatch()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*7919))
			out := &outs[c]
			// Paced mode: op n is due at n×interval on this client's own
			// clock, and its latency counts from that intended send time.
			// A stalled op makes the next ones late; they then run
			// back-to-back until the schedule is caught up, and each is
			// charged the time it spent waiting behind the stall — timing
			// from the actual send would hide exactly the stalls this
			// figure exists to show (coordinated omission).
			var interval time.Duration
			if cfg.TargetOps > 0 {
				interval = time.Duration(float64(cfg.Clients) * float64(time.Second) / float64(cfg.TargetOps))
			}
			clock := startStopwatch()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if interval > 0 {
					if ahead := time.Duration(n)*interval - clock.elapsed(); ahead > 0 {
						time.Sleep(ahead)
					}
				}
				isRead := rng.Float64() < cfg.ReadFrac
				start := clock.elapsed()
				if interval > 0 {
					start = time.Duration(n) * interval
				}
				if isRead {
					if _, err := st.Describe(uint64(rng.Intn(cfg.Preload)) + 1); err != nil {
						out.err = err
					}
					out.reads++
				} else {
					if _, err := st.AddImage(servingImage(rng, px)); err != nil {
						out.err = err
					}
					out.writes++
				}
				out.lat = append(out.lat, clock.elapsed()-start)
				if out.err != nil {
					return
				}
			}
		}(c)
	}
	time.Sleep(cfg.Duration)
	close(stop)
	wg.Wait()
	elapsed := sw.elapsed()
	// Drain outside the timed window: one explicit compaction pass so the
	// reported counters always reflect the workload reaching disk, even
	// when the background worker's in-flight pass outlives a short window.
	if err := st.Snapshot(); err != nil {
		return PersistenceModeResult{}, err
	}

	var all []time.Duration
	res := PersistenceModeResult{Mode: "segment", ElapsedS: elapsed.Seconds()}
	for c := range outs {
		if outs[c].err != nil {
			return PersistenceModeResult{}, fmt.Errorf("persistence bench client %d: %w", c, outs[c].err)
		}
		all = append(all, outs[c].lat...)
		res.Reads += outs[c].reads
		res.Writes += outs[c].writes
	}
	res.Ops = res.Reads + res.Writes
	res.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return float64(all[i]) / float64(time.Millisecond)
	}
	res.P50Ms = pct(0.50)
	res.P99Ms = pct(0.99)
	if len(all) > 0 {
		res.MaxStallMs = float64(all[len(all)-1]) / float64(time.Millisecond)
	}
	post := st.EngineStats()
	res.Flushes = post.Flushes - preStats.Flushes
	res.Compactions = post.Compactions - preStats.Compactions
	res.Segments = post.Segments
	return res, nil
}

// RunPersistence runs the workload and returns its measurements.
func RunPersistence(cfg PersistenceConfig) (*PersistenceResult, error) {
	if cfg.Clients <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("experiments: persistence config needs clients > 0 and duration > 0")
	}
	if cfg.Preload <= 0 {
		return nil, fmt.Errorf("experiments: persistence config needs preload > 0")
	}
	if cfg.FlushThreshold <= 0 {
		return nil, fmt.Errorf("experiments: persistence config needs FlushThreshold > 0")
	}
	seg, err := runPersistenceSegment(cfg)
	if err != nil {
		return nil, err
	}
	return &PersistenceResult{
		Figure:    "persistence",
		Clients:   cfg.Clients,
		ReadFrac:  cfg.ReadFrac,
		Preload:   cfg.Preload,
		TargetOps: cfg.TargetOps,
		Segment:   seg,
	}, nil
}

// WriteJSON writes the result as indented JSON (BENCH_persistence.json).
func (r *PersistenceResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Render returns the result as a text table.
func (r *PersistenceResult) Render() string {
	var b strings.Builder
	pace := "unpaced (saturating)"
	if r.TargetOps > 0 {
		pace = fmt.Sprintf("paced at %d ops/sec", r.TargetOps)
	}
	fmt.Fprintf(&b, "Persistence (segment engine) — %d clients, %.0f%% reads, %d preloaded images, %s\n",
		r.Clients, r.ReadFrac*100, r.Preload, pace)
	fmt.Fprintf(&b, "%-10s %10s %9s %9s %12s %7s %7s\n",
		"engine", "ops/sec", "p50 ms", "p99 ms", "max stall ms", "flushes", "compact")
	m := r.Segment
	fmt.Fprintf(&b, "%-10s %10.0f %9.3f %9.3f %12.1f %7d %7d\n",
		m.Mode, m.OpsPerSec, m.P50Ms, m.P99Ms, m.MaxStallMs, m.Flushes, m.Compactions)
	return b.String()
}
