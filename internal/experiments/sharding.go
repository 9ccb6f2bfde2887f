package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/imagesim"
	"repro/internal/shard"
	"repro/internal/store"
)

// Sharding scaling benchmark (`tvdp-bench -figure sharding`): the same
// mixed read/write workload the serving figure uses, run against shard
// coordinators of increasing width (1 → 2 → 4 → 8). Every shard is a
// full segment-engine store with its own six subsystem locks, WAL
// committer and flush/compaction worker, so a freeze-swap or a slow
// commit blocks only the owning shard while the others keep serving.
// The run also asserts the merge-determinism contract:
// every partition-invariant query must return bit-identical results at
// every shard count.

// ShardingConfig sizes one sharding benchmark run.
type ShardingConfig struct {
	// Counts are the shard widths to sweep.
	Counts []int
	// Clients is the number of concurrent workload goroutines.
	Clients int
	// ReadFrac in [0,1] is the probability an op is a read.
	ReadFrac float64
	// Duration is the measured wall-clock window per width.
	Duration time.Duration
	// Preload seeds each deployment with this many images before timing.
	Preload int
	// Sync enables SyncEveryWrite.
	Sync bool
	// Seed drives workload RNGs and the determinism-check corpus.
	Seed int64
}

// DefaultShardingConfig is the 1→2→4→8 sweep over a large preloaded
// corpus with group commit but no per-write fsync. SyncEveryWrite stays
// off by default because a per-batch fsync on one
// shared disk is deliberately *not* what this figure measures — see the
// package comment.
func DefaultShardingConfig() ShardingConfig {
	return ShardingConfig{
		Counts:   []int{1, 2, 4, 8},
		Clients:  12,
		ReadFrac: 0.5,
		Duration: 2 * time.Second,
		Preload:  8000,
		Sync:     false,
		Seed:     1,
	}
}

// ShardingPoint is one shard width's measurements.
type ShardingPoint struct {
	Shards    int     `json:"shards"`
	Ops       uint64  `json:"ops"`
	Reads     uint64  `json:"reads"`
	Writes    uint64  `json:"writes"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MaxMs     float64 `json:"max_ms"`
	ElapsedS  float64 `json:"elapsed_s"`
	// SpeedupX is this width's ops/sec over the 1-shard point.
	SpeedupX float64 `json:"speedup_x"`
}

// ShardingResult is the full sweep written to BENCH_sharding.json.
type ShardingResult struct {
	Figure         string          `json:"figure"`
	Clients        int             `json:"clients"`
	ReadFrac       float64         `json:"read_frac"`
	SyncEveryWrite bool            `json:"sync_every_write"`
	Points         []ShardingPoint `json:"points"`
	// TopKInvariant reports the merge-determinism check: bit-identical
	// results for every partition-invariant query at every shard count
	// (and against a bare unsharded store).
	TopKInvariant bool `json:"topk_invariant"`
}

func runShardingPoint(n int, cfg ShardingConfig) (ShardingPoint, error) {
	dir, err := os.MkdirTemp("", "tvdp-sharding-*")
	if err != nil {
		return ShardingPoint{}, err
	}
	defer os.RemoveAll(dir)
	co, err := shard.Open(shard.Config{
		Dir: dir, ShardCount: n,
		SyncEveryWrite: cfg.Sync,
	})
	if err != nil {
		return ShardingPoint{}, err
	}
	defer co.Close()

	px := imagesim.MustNew(4, 4)
	px.Fill(imagesim.RGB{R: 90, G: 110, B: 130})
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	preloaded := make([]uint64, 0, cfg.Preload)
	for i := 0; i < cfg.Preload; i++ {
		id, err := co.AddImage(servingImage(seedRng, px))
		if err != nil {
			return ShardingPoint{}, err
		}
		preloaded = append(preloaded, id)
	}

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
			for {
				select {
				case <-stop:
					return
				default:
				}
				isRead := rng.Float64() < cfg.ReadFrac
				op := startStopwatch()
				if isRead {
					// Point read routed to the owning shard (same cost at
					// any width, so scaling comes from write parallelism).
					if _, err := co.Describe(preloaded[rng.Intn(len(preloaded))]); err != nil {
						out.err = err
					}
					out.reads++
				} else {
					if _, err := co.AddImage(servingImage(rng, px)); err != nil {
						out.err = err
					}
					out.writes++
				}
				out.lat = append(out.lat, op.elapsed())
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

	var all []time.Duration
	res := ShardingPoint{Shards: n, ElapsedS: elapsed.Seconds()}
	for c := range outs {
		if outs[c].err != nil {
			return ShardingPoint{}, fmt.Errorf("sharding bench client %d (n=%d): %w", c, n, outs[c].err)
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
		res.MaxMs = float64(all[len(all)-1]) / float64(time.Millisecond)
	}
	return res, nil
}

// checkTopKInvariance seeds identical in-memory deployments at every
// width plus a bare store, then compares every partition-invariant query
// for bit-identical output.
func checkTopKInvariance(cfg ShardingConfig) (bool, error) {
	ctx := context.Background()
	bare, err := store.Open(store.DefaultConfig())
	if err != nil {
		return false, err
	}
	defer bare.Close()
	backends := []store.Backend{bare}
	for _, n := range cfg.Counts {
		co, err := shard.Open(shard.Config{ShardCount: n})
		if err != nil {
			return false, err
		}
		defer co.Close()
		backends = append(backends, co)
	}
	const corpus = 200
	kw := []string{"street", "garbage", "clean", "truck", "overflow", "bin"}
	for _, b := range backends {
		rng := rand.New(rand.NewSource(cfg.Seed))
		px := imagesim.MustNew(4, 4)
		px.Fill(imagesim.RGB{R: 90, G: 110, B: 130})
		for i := 0; i < corpus; i++ {
			id, err := b.AddImage(servingImage(rng, px))
			if err != nil {
				return false, err
			}
			if err := b.AddKeywords(id, []string{kw[i%len(kw)], kw[(i*2+1)%len(kw)]}); err != nil {
				return false, err
			}
			vec := []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
			if err := b.PutFeature(id, "hist", vec); err != nil {
				return false, err
			}
		}
	}
	qvec := []float64{5, 5, 5}
	from := time.Date(2019, 2, 1, 8, 0, 0, 0, time.UTC)
	region := geo.NewRect(geo.Destination(laCenter, 315, 4000), geo.Destination(laCenter, 135, 4000))
	queries := []func(store.Backend) (any, error){
		func(b store.Backend) (any, error) { return b.SearchVisualExact(ctx, "hist", qvec, 10) },
		func(b store.Backend) (any, error) { return b.SearchText(ctx, []string{"garbage", "truck"}) },
		func(b store.Backend) (any, error) { return b.SearchTextAll(ctx, []string{"garbage", "clean"}) },
		func(b store.Backend) (any, error) { return b.SearchTime(ctx, from, from.Add(12*time.Hour)) },
		func(b store.Backend) (any, error) { return b.SearchScene(ctx, region) },
		func(b store.Backend) (any, error) { return b.SearchNearest(ctx, laCenter, 20) },
	}
	for qi, run := range queries {
		want, err := run(backends[0])
		if err != nil {
			return false, err
		}
		for bi, b := range backends[1:] {
			got, err := run(b)
			if err != nil {
				return false, err
			}
			if !reflect.DeepEqual(got, want) {
				_ = qi
				_ = bi
				return false, nil
			}
		}
	}
	return true, nil
}

// RunSharding sweeps the shard widths and runs the determinism check.
func RunSharding(cfg ShardingConfig) (*ShardingResult, error) {
	if len(cfg.Counts) == 0 || cfg.Clients <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("experiments: sharding config needs counts, clients > 0, and duration > 0")
	}
	if cfg.ReadFrac > 0 && cfg.Preload <= 0 {
		return nil, fmt.Errorf("experiments: sharding config needs preload > 0 when reads are enabled")
	}
	r := &ShardingResult{
		Figure:         "sharding",
		Clients:        cfg.Clients,
		ReadFrac:       cfg.ReadFrac,
		SyncEveryWrite: cfg.Sync,
	}
	for _, n := range cfg.Counts {
		p, err := runShardingPoint(n, cfg)
		if err != nil {
			return nil, err
		}
		r.Points = append(r.Points, p)
	}
	if base := r.Points[0].OpsPerSec; base > 0 {
		for i := range r.Points {
			r.Points[i].SpeedupX = r.Points[i].OpsPerSec / base
		}
	}
	inv, err := checkTopKInvariance(cfg)
	if err != nil {
		return nil, err
	}
	r.TopKInvariant = inv
	return r, nil
}

// WriteJSON writes the result as indented JSON (BENCH_sharding.json).
func (r *ShardingResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Render returns the result as a text table.
func (r *ShardingResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharding scaling — %d clients, %.0f%% reads, SyncEveryWrite=%v\n",
		r.Clients, r.ReadFrac*100, r.SyncEveryWrite)
	fmt.Fprintf(&b, "%-8s %10s %9s %9s %9s %9s %9s\n", "shards", "ops/sec", "p50 ms", "p99 ms", "max ms", "ops", "speedup")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-8d %10.0f %9.3f %9.3f %9.1f %9d %8.2fx\n",
			p.Shards, p.OpsPerSec, p.P50Ms, p.P99Ms, p.MaxMs, p.Ops, p.SpeedupX)
	}
	fmt.Fprintf(&b, "top-k merge invariant across shard counts: %v\n", r.TopKInvariant)
	return b.String()
}
