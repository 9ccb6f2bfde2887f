package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/feature"
	"repro/internal/imagesim"
	"repro/internal/index"
	"repro/internal/ingest"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/synth"
)

// workload is one traffic mix. Why each exists is recorded in README.md.
type workload struct {
	name   string
	shards int
	// preload rows go in through store.Backend before the server starts.
	preload int
	// tail leaves the preload's last chunk unflushed: the reopen replays
	// it from the WAL into the memtable, so the timed phase's first
	// flush comes early.
	tail       bool
	uploadRate float64 // uploads per second
	searchRate float64 // searches per second
}

var workloads = map[string]workload{
	"upload": {name: "upload", shards: 1, uploadRate: 40},
	"search": {name: "search", shards: 1, preload: 2000, searchRate: 100},
	"mixed":  {name: "mixed", shards: 2, preload: 2400, tail: true, uploadRate: 40, searchRate: 60},
}

const (
	// senders bounds the load generator's goroutines and HTTP connections
	// (the machine the benchmark was sized on has 2 CPUs).
	senders = 2
	// searchK and searchLimit bound every generated search.
	searchK     = 10
	searchLimit = 10
	// paramPool is the number of distinct search requests, four times the
	// query engine's 512-entry result cache, drawn Zipf-skewed so some
	// requests hit the cache and some miss.
	paramPool = 2048
	zipfS     = 1.1
	// modelSeed trains the extractors. The models are part of the
	// platform's configuration, not of the workload's inputs, so every
	// seed runs against the same models; trained per seed, their
	// embedding scale against the fixed LSH bucket width moved search's
	// recall@10 from 0.69 to 0.94 across ten seeds.
	modelSeed = 1
	// featurePool is the number of distinct images whose extracted
	// features seed the preload; each preloaded row perturbs one of them.
	featurePool = 96
	// canaries are uploaded one at a time after the timed phase and then
	// searched for through every modality.
	canaries = 12
	// recallProbes is the fixed probe set per feature kind for recall@10.
	recallProbes = 60
	// reopens is how many times the run closes and reopens the store at
	// the end, timing each reopen and measuring the reopened heap.
	reopens = 3
	// preloadChunk is the number of preloaded rows per shard between
	// forced flushes. A chunk stays under the 8 MiB flush threshold, so no
	// background flush or compaction runs during the preload and its
	// segment layout does not depend on timing: search reopens with 10
	// segments; mixed with 5 per shard, one short of the compaction
	// trigger, plus one unflushed chunk, so the first flush in mixed's
	// timed phase comes about a third of the way in and starts a
	// compaction there.
	preloadChunk = 200
)

// options are the command-line settings of one run.
type options struct {
	workload  workload
	seed      int64
	seconds   float64
	trace     bool
	setups    int
	trainImgs int
	workdir   string
	commit    string
	// wrap, when set, wraps the backend under test (tests use it to
	// inject wrong answers).
	wrap func(store.Backend) store.Backend
}

// opKind tags a scheduled request.
type opKind int

const (
	opUpload opKind = iota
	opSearch
)

// searchKind names the five query shapes of the search mix.
type searchKind int

const (
	sVisual searchKind = iota
	sSpatialVisual
	sNearest
	sTextual
	sTemporal
	numSearchKinds
)

var searchKindNames = [...]string{"visual", "spatial+visual", "nearest", "textual", "temporal+spatial"}

type searchParam struct {
	kind searchKind
	req  api.SearchRequest
}

// corpus is everything generated from the seed before the server starts.
type corpus struct {
	preload  []synth.Record
	prefeat  [][3][]float64 // per preload row: colour, BoW, CNN vectors
	uploads  []api.UploadImageRequest
	canary   []api.UploadImageRequest
	params   []searchParam
	schedule []scheduled
	probes   []probe
	imgBytes int
}

type scheduled struct {
	kind  opKind
	index int // upload index or search param index
}

type probe struct {
	kind string
	vec  []float64
}

var kinds = []string{string(feature.KindColorHist), string(feature.KindSIFTBoW), string(feature.KindCNN)}

// trainExtractors trains the three feature families: colour histogram,
// SIFT-BoW (vocabulary 64, the ingest figure's dense SIFT config) and the
// CNN (2 epochs).
func trainExtractors(ctx context.Context, seed int64, n int) ([]feature.Extractor, error) {
	g, err := synth.NewGenerator(synth.DefaultConfig(n, seed+101))
	if err != nil {
		return nil, err
	}
	imgs := make([]*imagesim.Image, 0, n)
	labels := make([]int, 0, n)
	for _, rec := range g.Generate(n) {
		imgs = append(imgs, rec.Image)
		labels = append(labels, int(rec.Class))
	}
	sift := feature.SIFTConfig{MaxKeypoints: 200, PatchRadius: 10, GridCells: 4, OrientBins: 8, ResponseThreshold: 0.5}
	bow, err := feature.TrainBoW(imgs, sift, 64, seed)
	if err != nil {
		return nil, err
	}
	ccfg := feature.DefaultCNNTrainConfig(len(synth.ClassNames))
	ccfg.Train.Epochs = 2
	ccfg.Train.Seed = seed
	ccfg.Augment = 0
	cnn, err := feature.TrainCNN(ctx, imgs, labels, ccfg)
	if err != nil {
		return nil, err
	}
	return []feature.Extractor{feature.NewColorHistogram(), bow, cnn}, nil
}

// perturb returns v plus Gaussian noise scaled to v's per-dimension RMS,
// so perturbed copies cluster around v without repeating it.
func perturb(rng *rand.Rand, v []float64, sigma float64) []float64 {
	var ss float64
	for _, x := range v {
		ss += x * x
	}
	scale := sigma * math.Sqrt(ss/float64(len(v)))
	if scale == 0 {
		scale = sigma
	}
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x + rng.NormFloat64()*scale
	}
	return out
}

func uploadRequest(r synth.Record) api.UploadImageRequest {
	return api.UploadImageRequest{
		FOV:        api.FOVFromGeo(r.FOV),
		Pixels:     api.EncodePixels(r.Image),
		CapturedAt: r.CapturedAt,
		Keywords:   r.Keywords,
		WorkerID:   r.WorkerID,
	}
}

// canaryWord is a keyword no generated record carries.
func canaryWord(i int) string {
	return "zcanary" + string(rune('a'+i/26%26)) + string(rune('a'+i%26))
}

// canaryTime is a capture time outside the generated period.
func canaryTime(i int) time.Time {
	return time.Date(2031, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Hour)
}

// makeCorpus generates every input of the run from the seed.
func makeCorpus(o options, exts []feature.Extractor) (*corpus, error) {
	w := o.workload
	rng := rand.New(rand.NewSource(o.seed))
	nUp := int(math.Round(w.uploadRate * o.seconds))
	nSearch := int(math.Round(w.searchRate * o.seconds))
	g, err := synth.NewGenerator(synth.DefaultConfig(w.preload+nUp+canaries+featurePool, o.seed))
	if err != nil {
		return nil, err
	}
	recs := g.Generate(w.preload + nUp + canaries + featurePool)
	c := &corpus{preload: recs[:w.preload]}
	c.imgBytes = recs[0].Image.W * recs[0].Image.H * 3
	for _, r := range recs[w.preload : w.preload+nUp] {
		c.uploads = append(c.uploads, uploadRequest(r))
	}
	for i, r := range recs[w.preload+nUp : w.preload+nUp+canaries] {
		req := uploadRequest(r)
		req.Keywords = append(append([]string(nil), r.Keywords...), canaryWord(i))
		req.CapturedAt = canaryTime(i)
		req.WorkerID = "canary"
		c.canary = append(c.canary, req)
	}

	// Feature pool: real extractions of featurePool images; the preload,
	// the visual queries and the recall probes perturb them.
	pool := recs[w.preload+nUp+canaries:]
	imgs := make([]*imagesim.Image, len(pool))
	for i := range pool {
		imgs[i] = pool[i].Image
	}
	var poolFeat [3][][]float64
	for k, e := range exts {
		vs, err := feature.ExtractAll(e, imgs)
		if err != nil {
			return nil, fmt.Errorf("feature pool %s: %w", e.Kind(), err)
		}
		poolFeat[k] = vs
	}
	c.prefeat = make([][3][]float64, w.preload)
	for i := range c.prefeat {
		p := rng.Intn(featurePool)
		for k := range kinds {
			c.prefeat[i][k] = perturb(rng, poolFeat[k][p], 0.15)
		}
	}

	// Keyword vocabulary, sorted so it is seed-deterministic.
	var vocab []string
	seen := map[string]bool{}
	for _, r := range recs {
		for _, k := range r.Keywords {
			if !seen[k] {
				seen[k] = true
				vocab = append(vocab, k)
			}
		}
	}
	sort.Strings(vocab)

	// Search parameter pool. Rectangles and points centre on generated
	// capture locations so they land where the data is.
	locs := recs[:len(recs)-featurePool]
	timeStart := synth.DefaultConfig(1, 0).Start
	days := synth.DefaultConfig(1, 0).Days
	for i := 0; i < paramPool; i++ {
		sk := searchKind(i % int(numSearchKinds))
		k := rng.Intn(len(kinds))
		at := locs[rng.Intn(len(locs))].FOV.Camera
		var req api.SearchRequest
		req.Limit = searchLimit
		vec := func() {
			req.Visual = &struct {
				Kind   string    `json:"kind"`
				Vector []float64 `json:"vector"`
				K      int       `json:"k"`
				Exact  bool      `json:"exact,omitempty"`
				Quant  bool      `json:"quant,omitempty"`
			}{Kind: kinds[k], Vector: perturb(rng, poolFeat[k][rng.Intn(featurePool)], 0.15), K: searchK}
		}
		rect := func(halfDeg float64) {
			req.Spatial = &struct {
				MinLat float64 `json:"min_lat"`
				MinLon float64 `json:"min_lon"`
				MaxLat float64 `json:"max_lat"`
				MaxLon float64 `json:"max_lon"`
			}{MinLat: at.Lat - halfDeg, MinLon: at.Lon - halfDeg, MaxLat: at.Lat + halfDeg, MaxLon: at.Lon + halfDeg}
		}
		switch sk {
		case sVisual:
			vec()
		case sSpatialVisual:
			rect(0.004)
			vec()
		case sNearest:
			req.Near = &struct {
				Lat float64 `json:"lat"`
				Lon float64 `json:"lon"`
				K   int     `json:"k"`
			}{Lat: at.Lat, Lon: at.Lon, K: searchK}
		case sTextual:
			terms := []string{vocab[rng.Intn(len(vocab))]}
			if rng.Intn(2) == 0 {
				terms = append(terms, vocab[rng.Intn(len(vocab))])
			}
			req.Textual = &struct {
				Terms    []string `json:"terms"`
				MatchAll bool     `json:"match_all"`
			}{Terms: terms}
		case sTemporal:
			from := timeStart.Add(time.Duration(rng.Intn(days*24)) * time.Hour)
			req.Temporal = &struct {
				From time.Time `json:"from"`
				To   time.Time `json:"to"`
			}{From: from, To: from.Add(12 * time.Hour)}
			rect(0.02)
		}
		c.params = append(c.params, searchParam{kind: sk, req: req})
	}

	// The schedule: uploads and searches interleaved at their rates.
	if nSearch > 0 {
		zipf := rand.NewZipf(rng, zipfS, 1, paramPool-1)
		for i := 0; i < nSearch; i++ {
			c.schedule = append(c.schedule, scheduled{kind: opSearch, index: int(zipf.Uint64())})
		}
	}
	for i := 0; i < nUp; i++ {
		c.schedule = append(c.schedule, scheduled{kind: opUpload, index: i})
	}
	rng.Shuffle(len(c.schedule), func(i, j int) { c.schedule[i], c.schedule[j] = c.schedule[j], c.schedule[i] })
	// Uploads keep their generated order within the shuffled schedule.
	u := 0
	for i := range c.schedule {
		if c.schedule[i].kind == opUpload {
			c.schedule[i].index = u
			u++
		}
	}

	for k, kind := range kinds {
		for i := 0; i < recallProbes; i++ {
			c.probes = append(c.probes, probe{kind: kind, vec: perturb(rng, poolFeat[k][i%featurePool], 0.15)})
		}
	}
	return c, nil
}

// env is one set-up platform: store, analysis service, ingest pipeline,
// API server on a loopback listener, and a client.
type env struct {
	o       options
	c       *corpus
	dir     string
	raw     store.Backend // the backend under test, unwrapped
	backend *tracedBackend
	tr      *tracer
	pipe    *ingest.Pipeline
	server  *api.Server
	httpSrv *http.Server
	served  chan error
	client  *api.Client
	// rowBytes is the pixel and feature bytes users hand over per row.
	rowBytes int64
	// before holds the probe-set answers taken before the preload's close.
	before *snapshotAnswers
}

func openBackend(o options, dir string) (store.Backend, error) {
	if o.workload.shards > 1 {
		return shard.Open(shard.Config{
			Dir:        dir,
			ShardCount: o.workload.shards,
			RTree:      index.DefaultRTreeConfig(),
			LSH:        index.DefaultLSHConfig(1),
		})
	}
	cfg := store.DefaultConfig()
	cfg.Dir = dir
	return store.Open(cfg)
}

// preload writes the preload rows through store.Backend from two
// goroutines, so the WAL group commit sees concurrent writers, and
// flushes (Snapshot) after every chunk of rows but, with tail, the last.
func preload(st store.Backend, c *corpus, chunk int, tail bool) error {
	for lo := 0; lo < len(c.preload); lo += chunk {
		hi := min(lo+chunk, len(c.preload))
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := lo + w; i < hi; i += 2 {
					r := c.preload[i]
					id, err := st.AddImage(store.Image{
						FOV: r.FOV, Pixels: r.Image, TimestampCapturing: r.CapturedAt,
						TimestampUploading: r.UploadedAt, WorkerID: r.WorkerID,
					})
					if err == nil {
						err = st.AddKeywords(id, r.Keywords)
					}
					for k := 0; err == nil && k < len(kinds); k++ {
						err = st.PutFeature(id, kinds[k], c.prefeat[i][k])
					}
					if err != nil {
						errs[w] = fmt.Errorf("preload row %d: %w", i, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		if tail && hi == len(c.preload) {
			break
		}
		if err := st.Snapshot(); err != nil {
			return fmt.Errorf("flushing preload: %w", err)
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// rowBytes is what users hand the platform per row: pixels plus feature
// vectors (8 bytes per dimension).
func rowBytes(c *corpus, exts []feature.Extractor) int64 {
	per := int64(c.imgBytes)
	for _, e := range exts {
		per += 8 * int64(e.Dim())
	}
	return per
}

// setup builds one platform from scratch: extractor training, corpus
// generation, preload, flush and close, reopen, server start.
func setup(ctx context.Context, o options, n int) (*env, error) {
	exts, err := trainExtractors(ctx, modelSeed, o.trainImgs)
	if err != nil {
		return nil, fmt.Errorf("training extractors: %w", err)
	}
	c, err := makeCorpus(o, exts)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.workdir, fmt.Sprintf("run-%d-%s-%d", os.Getpid(), o.workload.name, n))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &env{o: o, c: c, dir: dir, rowBytes: rowBytes(c, exts)}
	st, err := openBackend(o, dir)
	if err != nil {
		return nil, err
	}
	if o.workload.preload > 0 {
		if err := preload(st, c, preloadChunk*o.workload.shards, o.workload.tail); err != nil {
			return nil, errors.Join(err, st.Close())
		}
		if e.before, err = answers(ctx, st, c); err != nil {
			return nil, errors.Join(err, st.Close())
		}
		if err := st.Close(); err != nil {
			return nil, err
		}
		if st, err = openBackend(o, dir); err != nil {
			return nil, fmt.Errorf("reopening preload: %w", err)
		}
	}
	e.raw = st
	if o.wrap != nil {
		st = o.wrap(st)
	}
	layer := "store"
	if o.workload.shards > 1 {
		layer = "shard"
	}
	e.tr = newTracer(len(exts))
	e.backend = &tracedBackend{Backend: st, tr: e.tr, layer: layer}
	svc := analysis.NewService(e.backend)
	for _, x := range exts {
		svc.RegisterExtractor(tracedExtractor{Extractor: x, tr: e.tr})
	}
	e.pipe = ingest.New(e.backend, svc, ingest.DefaultConfig())
	if err := e.pipe.Start(ctx); err != nil {
		return nil, errors.Join(err, e.raw.Close())
	}
	e.server = api.NewServer(e.backend, svc, e.pipe, log.New(io.Discard, "", 0))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, e.pipe.Close(), e.raw.Close())
	}
	e.httpSrv = &http.Server{Handler: tracedHandler{next: e.server, tr: e.tr}, ReadHeaderTimeout: 10 * time.Second}
	e.served = make(chan error, 1)
	go func() { e.served <- e.httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	boot := api.NewClientTimeout(base, "", 10*time.Second)
	boot.HTTP.Transport = &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true}
	uid, err := boot.CreateUser("perfbench", "analyst")
	if err == nil {
		boot.APIKey, err = boot.CreateKey(uid)
	}
	if err != nil {
		return nil, errors.Join(fmt.Errorf("bootstrapping API key: %w", err), e.close())
	}
	e.client = boot
	return e, nil
}

// stopServing shuts the HTTP server and the ingest pipeline down, in
// that order, so no request is in flight when the store closes.
func (e *env) stopServing() error {
	var errs []error
	if e.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, e.httpSrv.Shutdown(ctx))
		cancel()
		if err := <-e.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		e.httpSrv = nil
		if t, ok := e.client.HTTP.Transport.(*http.Transport); ok {
			t.CloseIdleConnections()
		}
	}
	if e.pipe != nil {
		errs = append(errs, e.pipe.Close())
		e.pipe = nil
	}
	return errors.Join(errs...)
}

// close stops everything and removes the store directory.
func (e *env) close() error {
	errs := []error{e.stopServing()}
	if e.raw != nil {
		errs = append(errs, e.raw.Close())
		e.raw = nil
	}
	errs = append(errs, os.RemoveAll(e.dir))
	return errors.Join(errs...)
}

// snapshotAnswers are answers that must survive a close and reopen.
type snapshotAnswers struct {
	rows  int
	exact [][]uint64
}

func answers(ctx context.Context, st store.Backend, c *corpus) (*snapshotAnswers, error) {
	a := &snapshotAnswers{rows: st.NumImages()}
	for _, p := range c.probes {
		ms, err := st.SearchVisualExact(ctx, p.kind, p.vec, searchK)
		if err != nil {
			return nil, err
		}
		ids := make([]uint64, len(ms))
		for i, m := range ms {
			ids[i] = m.ID
		}
		a.exact = append(a.exact, ids)
	}
	return a, nil
}

func (a *snapshotAnswers) diff(b *snapshotAnswers) error {
	if a.rows != b.rows {
		return fmt.Errorf("reopened store has %d images, %d before close", b.rows, a.rows)
	}
	for i := range a.exact {
		if fmt.Sprint(a.exact[i]) != fmt.Sprint(b.exact[i]) {
			return fmt.Errorf("probe %d: exact top-%d %v after reopen, %v before", i, searchK, b.exact[i], a.exact[i])
		}
	}
	return nil
}

func normTerms(ts []string) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = strings.ToLower(t)
	}
	return out
}
