package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/feature"
	"repro/internal/imagesim"
	"repro/internal/ingest"
	"repro/internal/store"
	"repro/internal/synth"
)

// Ingestion-tier benchmark (`tvdp-bench -figure ingest`): the same paced
// upload workload run through the pipeline's two ack disciplines —
// inline (the legacy path: the client ack waits for persist + feature
// extraction + index insert) and streaming (ack at WAL commit; heavy
// extraction and index maintenance happen on partitioned pipeline
// workers behind the ack). Extraction runs the paper's full feature
// stack — colour histogram, SIFT-BoW (dense keypoint budget), and the
// CNN — so the analysis stage costs several ms per image, dominating
// the sub-ms persist. That is what the staged pipeline buys: ack
// latency decoupled from analysis cost at identical offered load and
// identical durability. The recall probe then checks the cost side of
// the ledger — the online-maintained ANN index over streamed inserts
// must match the inline build's recall.

// IngestConfig sizes one ingestion benchmark run.
type IngestConfig struct {
	// Clients is the number of concurrent upload goroutines.
	Clients int
	// Records is the total record count submitted per mode (the same
	// synthetic corpus, same seed, both modes).
	Records int
	// TargetOps paces the offered load at this many uploads/sec across
	// all clients (0 = unpaced). Paced is the honest comparison: both
	// modes see identical arrivals, chosen inside capacity, so ack
	// latency measures the ack discipline rather than queueing at
	// saturation.
	TargetOps int
	// BoWVocab / BoWTrain size the SIFT-BoW extractor (vocabulary size,
	// training images); CNNEpochs trains the CNN extractor on the same
	// slice. Together the three families make extraction expensive.
	BoWVocab  int
	BoWTrain  int
	CNNEpochs int
	// Partitions / QueueDepth configure the streaming pipeline. When a
	// partition's queue fills, admission sheds and the client backs off
	// and resubmits; the retry wait counts into that record's ack
	// latency (backpressure is not free and is not hidden).
	Partitions int
	QueueDepth int
	// Queries / K drive the recall probe: K-NN over the SIFT-BoW index
	// for Queries probe vectors, approximate vs exact, per mode.
	Queries int
	K       int
	// Seed drives corpus generation, client striping, and probes.
	Seed int64
}

// DefaultIngestConfig paces 4 clients at 60 uploads/sec for 360
// records. The three-family extraction stack costs ~7 ms/image, so the
// offered load uses under half the single CPU for analysis — streaming
// keeps headroom (its acks stay persist-bound) while inline clients pay
// the full analysis cost inside every ack, which is the comparison the
// figure exists to make.
func DefaultIngestConfig() IngestConfig {
	return IngestConfig{
		Clients:    4,
		Records:    720,
		TargetOps:  60,
		BoWVocab:   64,
		BoWTrain:   60,
		CNNEpochs:  2,
		Partitions: 2,
		QueueDepth: 64,
		Queries:    40,
		K:          10,
		Seed:       1,
	}
}

// IngestModeResult is one ack discipline's measurements.
type IngestModeResult struct {
	Mode    string `json:"mode"`
	Records int    `json:"records"`
	// Ack percentiles: submit-to-ack, the latency an uploading camera
	// sees, counted from the intended send time when paced. For
	// streaming this includes any ErrBusy backoff+resubmit.
	AckP50Ms float64 `json:"ack_p50_ms"`
	AckP95Ms float64 `json:"ack_p95_ms"`
	AckP99Ms float64 `json:"ack_p99_ms"`
	AckMaxMs float64 `json:"ack_max_ms"`
	// Sheds counts admissions refused with ErrBusy (each was backed off
	// and resubmitted — at-least-once with nothing persisted on a shed).
	Sheds uint64 `json:"sheds"`
	// SubmitS is the submit window (last ack − first submit); DrainS the
	// further wait until extraction and indexing fully caught up.
	SubmitS   float64 `json:"submit_s"`
	DrainS    float64 `json:"drain_s"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// RecallAtK is the online ANN index's recall against an exact scan
	// over the same store, averaged across the probe set.
	RecallAtK float64 `json:"recall_at_k"`
}

// IngestResult is the full comparison written to BENCH_ingest.json.
type IngestResult struct {
	Figure    string           `json:"figure"`
	Clients   int              `json:"clients"`
	TargetOps int              `json:"target_ops"`
	BoWVocab  int              `json:"bow_vocab"`
	K         int              `json:"k"`
	Inline    IngestModeResult `json:"inline"`
	Streaming IngestModeResult `json:"streaming"`
	// AckP99ImprovementX is inline ack p99 over streaming ack p99
	// (higher = the staged pipeline wins).
	AckP99ImprovementX float64 `json:"ack_p99_improvement_x"`
	// RecallDelta is inline recall − streaming recall; parity means
	// online index maintenance gave nothing away (≈ 0).
	RecallDelta float64 `json:"recall_delta"`
}

// heavyIngestSIFT is DefaultSIFTConfig with the keypoint budget opened
// up (5x the detections, permissive response threshold) — the dense
// setting that makes per-image extraction cost representative of real
// feature stacks rather than the harness's smoke sizing.
func heavyIngestSIFT() feature.SIFTConfig {
	return feature.SIFTConfig{
		MaxKeypoints: 200, PatchRadius: 10, GridCells: 4, OrientBins: 8,
		ResponseThreshold: 0.5,
	}
}

// trainIngestExtractors builds the heavy extractors both modes share
// (SIFT-BoW and CNN). Training happens once, outside both timed
// windows, on its own corpus slice.
func trainIngestExtractors(cfg IngestConfig) (*feature.BoW, *feature.CNNExtractor, error) {
	g, err := synth.NewGenerator(synth.DefaultConfig(cfg.BoWTrain, cfg.Seed+101))
	if err != nil {
		return nil, nil, err
	}
	imgs := make([]*imagesim.Image, 0, cfg.BoWTrain)
	labels := make([]int, 0, cfg.BoWTrain)
	for _, rec := range g.Generate(cfg.BoWTrain) {
		imgs = append(imgs, rec.Image)
		labels = append(labels, int(rec.Class))
	}
	bow, err := feature.TrainBoW(imgs, heavyIngestSIFT(), cfg.BoWVocab, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	ccfg := feature.DefaultCNNTrainConfig(len(synth.ClassNames))
	ccfg.Train.Epochs = cfg.CNNEpochs
	ccfg.Train.Seed = cfg.Seed
	ccfg.Augment = 0
	cnn, err := feature.TrainCNN(context.Background(), imgs, labels, ccfg)
	if err != nil {
		return nil, nil, err
	}
	return bow, cnn, nil
}

func runIngestMode(mode string, cfg IngestConfig, recs []synth.Record, bow *feature.BoW, cnn *feature.CNNExtractor) (IngestModeResult, error) {
	dir, err := os.MkdirTemp("", "tvdp-ingest-*")
	if err != nil {
		return IngestModeResult{}, err
	}
	defer os.RemoveAll(dir)
	scfg := store.DefaultConfig()
	scfg.Dir = dir
	st, err := store.Open(scfg)
	if err != nil {
		return IngestModeResult{}, err
	}
	defer st.Close()
	svc := analysis.NewService(st)
	svc.RegisterExtractor(feature.NewColorHistogram())
	svc.RegisterExtractor(bow)
	svc.RegisterExtractor(cnn)
	pipe := ingest.New(st, svc, ingest.Config{Partitions: cfg.Partitions, QueueDepth: cfg.QueueDepth})
	ctx := context.Background()
	pipe.Start(ctx)
	defer pipe.Close()

	type clientOut struct {
		lat []time.Duration
		err error
	}
	outs := make([]clientOut, cfg.Clients)
	var interval time.Duration
	if cfg.TargetOps > 0 {
		interval = time.Duration(float64(cfg.Clients) * float64(time.Second) / float64(cfg.TargetOps))
	}
	sw := startStopwatch()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			clock := startStopwatch()
			// Client c owns records c, c+Clients, c+2*Clients, ... — a
			// deterministic striping that also spreads WorkerIDs (and so
			// pipeline partitions) across clients.
			//
			// Paced mode: record n is due at n×interval on this client's
			// own clock, and its ack latency counts from that intended
			// send time, so a stall charges every record it delayed —
			// timing from the actual send would hide exactly those
			// (coordinated omission). Unpaced, it counts from the send.
			n := 0
			for i := c; i < len(recs); i += cfg.Clients {
				if interval > 0 {
					if ahead := time.Duration(n)*interval - clock.elapsed(); ahead > 0 {
						time.Sleep(ahead)
					}
				}
				start := clock.elapsed()
				if interval > 0 {
					start = time.Duration(n) * interval
				}
				n++
				rec := ingest.Record{
					Image: store.Image{
						FOV:                recs[i].FOV,
						Pixels:             recs[i].Image,
						TimestampCapturing: recs[i].CapturedAt,
						TimestampUploading: recs[i].UploadedAt,
						WorkerID:           recs[i].WorkerID,
					},
					Keywords: recs[i].Keywords,
				}
				var err error
				if mode == "inline" {
					_, _, err = pipe.SubmitSync(ctx, rec)
				} else {
					for {
						_, err = pipe.SubmitAsync(ctx, rec)
						if !errors.Is(err, ingest.ErrBusy) {
							break
						}
						// Shed: nothing persisted; back off and resubmit.
						// The wait stays inside this record's ack latency.
						time.Sleep(time.Millisecond)
					}
				}
				if err != nil {
					out.err = err
					return
				}
				out.lat = append(out.lat, clock.elapsed()-start)
			}
		}(c)
	}
	wg.Wait()
	submitS := sw.elapsed()
	drainSW := startStopwatch()
	if err := pipe.Drain(ctx); err != nil {
		return IngestModeResult{}, err
	}
	drainS := drainSW.elapsed()

	var all []time.Duration
	for c := range outs {
		if outs[c].err != nil {
			return IngestModeResult{}, fmt.Errorf("ingest bench client %d: %w", c, outs[c].err)
		}
		all = append(all, outs[c].lat...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		return float64(all[int(p*float64(len(all)-1))]) / float64(time.Millisecond)
	}
	res := IngestModeResult{
		Mode:      mode,
		Records:   len(all),
		AckP50Ms:  pct(0.50),
		AckP95Ms:  pct(0.95),
		AckP99Ms:  pct(0.99),
		Sheds:     pipe.Stats().Shed,
		SubmitS:   submitS.Seconds(),
		DrainS:    drainS.Seconds(),
		OpsPerSec: float64(len(all)) / submitS.Seconds(),
	}
	if len(all) > 0 {
		res.AckMaxMs = float64(all[len(all)-1]) / float64(time.Millisecond)
	}
	res.RecallAtK, err = ingestRecall(ctx, st, bow, recs, cfg)
	if err != nil {
		return IngestModeResult{}, err
	}
	return res, nil
}

// ingestRecall probes the SIFT-BoW ANN index built by this mode's
// inserts: approximate top-K vs an exact scan over the same store,
// averaged over cfg.Queries probe vectors drawn from the corpus.
func ingestRecall(ctx context.Context, st *store.Store, bow *feature.BoW, recs []synth.Record, cfg IngestConfig) (float64, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 17))
	kind := string(feature.KindSIFTBoW)
	var total float64
	for q := 0; q < cfg.Queries; q++ {
		vec, err := bow.Extract(recs[rng.Intn(len(recs))].Image)
		if err != nil {
			return 0, err
		}
		approx, err := st.SearchVisual(ctx, kind, vec, cfg.K)
		if err != nil {
			return 0, err
		}
		exact, err := st.SearchVisualExact(ctx, kind, vec, cfg.K)
		if err != nil {
			return 0, err
		}
		truth := make(map[uint64]bool, len(exact))
		for _, m := range exact {
			truth[m.ID] = true
		}
		hit := 0
		for _, m := range approx {
			if truth[m.ID] {
				hit++
			}
		}
		if len(exact) > 0 {
			total += float64(hit) / float64(len(exact))
		}
	}
	return total / float64(cfg.Queries), nil
}

// RunIngest runs the paced upload workload under both ack disciplines
// and returns the comparison.
func RunIngest(cfg IngestConfig) (*IngestResult, error) {
	if cfg.Clients <= 0 || cfg.Records <= 0 {
		return nil, fmt.Errorf("experiments: ingest config needs clients > 0 and records > 0")
	}
	if cfg.BoWVocab <= 0 || cfg.BoWTrain <= 0 || cfg.CNNEpochs <= 0 || cfg.Queries <= 0 || cfg.K <= 0 {
		return nil, fmt.Errorf("experiments: ingest config needs extractor sizing and probe counts > 0")
	}
	bow, cnn, err := trainIngestExtractors(cfg)
	if err != nil {
		return nil, err
	}
	g, err := synth.NewGenerator(synth.DefaultConfig(cfg.Records, cfg.Seed))
	if err != nil {
		return nil, err
	}
	recs := g.Generate(cfg.Records)
	inline, err := runIngestMode("inline", cfg, recs, bow, cnn)
	if err != nil {
		return nil, err
	}
	streaming, err := runIngestMode("streaming", cfg, recs, bow, cnn)
	if err != nil {
		return nil, err
	}
	r := &IngestResult{
		Figure:    "ingest",
		Clients:   cfg.Clients,
		TargetOps: cfg.TargetOps,
		BoWVocab:  cfg.BoWVocab,
		K:         cfg.K,
		Inline:    inline,
		Streaming: streaming,
	}
	if streaming.AckP99Ms > 0 {
		r.AckP99ImprovementX = inline.AckP99Ms / streaming.AckP99Ms
	}
	r.RecallDelta = inline.RecallAtK - streaming.RecallAtK
	return r, nil
}

// WriteJSON writes the result as indented JSON (BENCH_ingest.json).
func (r *IngestResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Render returns the result as a text table.
func (r *IngestResult) Render() string {
	var b strings.Builder
	pace := "unpaced"
	if r.TargetOps > 0 {
		pace = fmt.Sprintf("paced at %d uploads/sec", r.TargetOps)
	}
	fmt.Fprintf(&b, "Ingestion tier — %d clients, %s, BoW vocab %d\n", r.Clients, pace, r.BoWVocab)
	fmt.Fprintf(&b, "%-10s %8s %9s %9s %9s %9s %6s %8s %8s %10s\n",
		"mode", "records", "p50 ms", "p95 ms", "p99 ms", "max ms", "sheds", "submit s", "drain s", "recall@K")
	for _, m := range []IngestModeResult{r.Inline, r.Streaming} {
		fmt.Fprintf(&b, "%-10s %8d %9.3f %9.3f %9.3f %9.1f %6d %8.2f %8.2f %10.3f\n",
			m.Mode, m.Records, m.AckP50Ms, m.AckP95Ms, m.AckP99Ms, m.AckMaxMs, m.Sheds, m.SubmitS, m.DrainS, m.RecallAtK)
	}
	fmt.Fprintf(&b, "ack p99 improvement: %.2fx   recall delta: %+.3f\n",
		r.AckP99ImprovementX, r.RecallDelta)
	return b.String()
}
