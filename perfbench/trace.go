package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/feature"
	"repro/internal/geo"
	"repro/internal/imagesim"
	"repro/internal/index"
	"repro/internal/store"
)

// The program under test is not instrumented. The traced run times calls
// into each layer's public functions from outside, through three
// wrappers: tracedHandler around the api.Server http.Handler,
// tracedBackend around store.Backend, and tracedExtractor around each
// registered feature.Extractor. The backend wrapper also carries the
// completion hook every run needs (the time each upload's last feature
// kind landed), which is why it is present whether or not spans are on.

// span is one timed call. Times are nanoseconds since the tracer's
// origin. Trace groups the spans of one request; spans that cannot
// carry a context (the ingest worker's calls) record the Image they
// touched and join their request's trace by image ID afterwards.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Image  uint64 `json:"image,omitempty"`
	// Rows is the number of rows a store search primitive returned, or
	// the request body size for an upload handler span.
	Rows int `json:"rows,omitempty"`
	// Status is the HTTP status of a handler span.
	Status int `json:"status,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

type spanKey struct{}

// spanRef is what the handler wrapper puts on the request context.
type spanRef struct{ trace, id uint64 }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	on     atomic.Bool
	ids    atomic.Uint64

	mu    sync.Mutex
	spans []span

	// pixels maps the pixel buffer a traced GetImage returned to its
	// image ID, so an extractor span can name the record it worked on;
	// pixOf is the reverse, to forget the buffer once the record is done.
	pixMu  sync.Mutex
	pixels map[*imagesim.Image]uint64
	pixOf  map[uint64]*imagesim.Image

	status429 atomic.Int64
	status5xx atomic.Int64

	// Completion hook (always on): PutFeature count per image, and the
	// time the image's last kind landed.
	kinds   int
	hookMu  sync.Mutex
	puts    map[uint64]int
	visible map[uint64]time.Time
}

func newTracer(kinds int) *tracer {
	return &tracer{
		origin:  time.Now(),
		pixels:  make(map[*imagesim.Image]uint64),
		pixOf:   make(map[uint64]*imagesim.Image),
		kinds:   kinds,
		puts:    make(map[uint64]int),
		visible: make(map[uint64]time.Time),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) add(s span) {
	if s.ID == 0 {
		s.ID = t.ids.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// putLanded is the completion hook: it records when the image's last
// feature kind was stored.
func (t *tracer) putLanded(id uint64, at time.Time) {
	t.hookMu.Lock()
	t.puts[id]++
	done := t.puts[id] == t.kinds
	if done {
		t.visible[id] = at
	}
	t.hookMu.Unlock()
	if done {
		t.pixMu.Lock()
		delete(t.pixels, t.pixOf[id])
		delete(t.pixOf, id)
		t.pixMu.Unlock()
	}
}

// visibleAt reports when image id became fully searchable.
func (t *tracer) visibleAt(id uint64) (time.Time, bool) {
	t.hookMu.Lock()
	defer t.hookMu.Unlock()
	at, ok := t.visible[id]
	return at, ok
}

// ---- api: handler wrapper ----

type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

// recorder captures the status and, for uploads, the small 202 body
// that carries the assigned image ID.
type recorder struct {
	http.ResponseWriter
	status int
	body   *bytes.Buffer
}

func (r *recorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	if r.body != nil && r.body.Len() < 4096 {
		r.body.Write(p)
	}
	return r.ResponseWriter.Write(p)
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &recorder{ResponseWriter: w}
	on := h.tr.on.Load()
	if !on {
		h.next.ServeHTTP(rec, r)
		h.countStatus(rec.status)
		return
	}
	name := "api.other"
	switch r.URL.Path {
	case "/api/v1/images":
		name = "api.upload"
		rec.body = &bytes.Buffer{}
	case "/api/v1/search":
		name = "api.search"
	}
	id := h.tr.ids.Add(1)
	ctx := context.WithValue(r.Context(), spanKey{}, spanRef{trace: id, id: id})
	start := h.tr.now()
	h.next.ServeHTTP(rec, r.WithContext(ctx))
	s := span{Name: name, ID: id, Trace: id, Start: start, End: h.tr.now(), Status: rec.status}
	h.countStatus(rec.status)
	if name == "api.upload" {
		s.Rows = int(r.ContentLength)
		var ack struct {
			ID uint64 `json:"id"`
		}
		if json.Unmarshal(rec.body.Bytes(), &ack) == nil {
			s.Image = ack.ID
		}
	}
	h.tr.add(s)
}

func (h tracedHandler) countStatus(code int) {
	switch {
	case code == http.StatusTooManyRequests:
		h.tr.status429.Add(1)
	case code >= 500:
		h.tr.status5xx.Add(1)
	}
}

// ---- feature: extractor wrapper ----

type tracedExtractor struct {
	feature.Extractor
	tr *tracer
}

func (e tracedExtractor) Extract(img *imagesim.Image) ([]float64, error) {
	if !e.tr.on.Load() {
		return e.Extractor.Extract(img)
	}
	start := e.tr.now()
	v, err := e.Extractor.Extract(img)
	end := e.tr.now()
	e.tr.pixMu.Lock()
	id := e.tr.pixels[img]
	e.tr.pixMu.Unlock()
	e.tr.add(span{Name: "feature." + string(e.Kind()), Start: start, End: end, Image: id})
	return v, err
}

// ---- store: backend wrapper ----

// tracedBackend times the store.Backend calls the serving and ingest
// paths make. Methods not overridden pass straight through the embedded
// backend. layer is "store" over a single store.Store and "shard" over
// a shard.Coordinator, whose Search* spans then include fan-out and
// merge.
type tracedBackend struct {
	store.Backend
	tr    *tracer
	layer string
}

// timed records a backend span that started at start. ref is the
// request the call belongs to, when the call carried its context.
func (b *tracedBackend) timed(ref spanRef, name string, img uint64, start int64, rows int) {
	b.tr.add(span{Name: b.layer + "." + name, Trace: ref.trace, Parent: ref.id,
		Start: start, End: b.tr.now(), Image: img, Rows: rows})
}

// refOf returns the request span the handler wrapper put on ctx.
func refOf(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

func (b *tracedBackend) AddImage(img store.Image) (uint64, error) {
	if !b.tr.on.Load() {
		return b.Backend.AddImage(img)
	}
	start := b.tr.now()
	id, err := b.Backend.AddImage(img)
	b.timed(spanRef{}, "add_image", id, start, 0)
	return id, err
}

func (b *tracedBackend) AddKeywords(id uint64, words []string) error {
	if !b.tr.on.Load() {
		return b.Backend.AddKeywords(id, words)
	}
	start := b.tr.now()
	err := b.Backend.AddKeywords(id, words)
	b.timed(spanRef{}, "add_keywords", id, start, 0)
	return err
}

func (b *tracedBackend) GetImage(id uint64) (store.Image, error) {
	if !b.tr.on.Load() {
		return b.Backend.GetImage(id)
	}
	start := b.tr.now()
	img, err := b.Backend.GetImage(id)
	b.timed(spanRef{}, "get_image", id, start, 0)
	if err == nil && img.Pixels != nil {
		b.tr.pixMu.Lock()
		b.tr.pixels[img.Pixels] = id
		b.tr.pixOf[id] = img.Pixels
		b.tr.pixMu.Unlock()
	}
	return img, err
}

func (b *tracedBackend) PutFeature(id uint64, kind string, vec []float64) error {
	start := b.tr.now()
	err := b.Backend.PutFeature(id, kind, vec)
	if err == nil {
		b.tr.putLanded(id, time.Now())
	}
	if b.tr.on.Load() {
		b.timed(spanRef{}, "put_feature", id, start, 0)
	}
	return err
}

func (b *tracedBackend) Describe(id uint64) (store.Descriptor, error) {
	if !b.tr.on.Load() {
		return b.Backend.Describe(id)
	}
	start := b.tr.now()
	d, err := b.Backend.Describe(id)
	b.timed(spanRef{}, "describe", id, start, 0)
	return d, err
}

func (b *tracedBackend) SearchScene(ctx context.Context, r geo.Rect) ([]uint64, error) {
	if !b.tr.on.Load() {
		return b.Backend.SearchScene(ctx, r)
	}
	start := b.tr.now()
	ids, err := b.Backend.SearchScene(ctx, r)
	b.timed(refOf(ctx), "search_scene", 0, start, len(ids))
	return ids, err
}

func (b *tracedBackend) SearchNearest(ctx context.Context, p geo.Point, k int) ([]uint64, error) {
	if !b.tr.on.Load() {
		return b.Backend.SearchNearest(ctx, p, k)
	}
	start := b.tr.now()
	ids, err := b.Backend.SearchNearest(ctx, p, k)
	b.timed(refOf(ctx), "search_nearest", 0, start, len(ids))
	return ids, err
}

func (b *tracedBackend) visual(ctx context.Context, f func() ([]index.Match, error)) ([]index.Match, error) {
	if !b.tr.on.Load() {
		return f()
	}
	start := b.tr.now()
	ms, err := f()
	b.timed(refOf(ctx), "search_visual", 0, start, len(ms))
	return ms, err
}

func (b *tracedBackend) SearchVisual(ctx context.Context, kind string, vec []float64, k int) ([]index.Match, error) {
	return b.visual(ctx, func() ([]index.Match, error) { return b.Backend.SearchVisual(ctx, kind, vec, k) })
}

func (b *tracedBackend) SearchVisualQuant(ctx context.Context, kind string, vec []float64, k int) ([]index.Match, error) {
	return b.visual(ctx, func() ([]index.Match, error) { return b.Backend.SearchVisualQuant(ctx, kind, vec, k) })
}

func (b *tracedBackend) SearchVisualExact(ctx context.Context, kind string, vec []float64, k int) ([]index.Match, error) {
	return b.visual(ctx, func() ([]index.Match, error) { return b.Backend.SearchVisualExact(ctx, kind, vec, k) })
}

func (b *tracedBackend) SearchVisualRadius(ctx context.Context, kind string, vec []float64, r float64) ([]index.Match, error) {
	return b.visual(ctx, func() ([]index.Match, error) { return b.Backend.SearchVisualRadius(ctx, kind, vec, r) })
}

func (b *tracedBackend) SearchHybrid(ctx context.Context, kind string, r geo.Rect, vec []float64, k int) ([]index.Match, bool, error) {
	if !b.tr.on.Load() {
		return b.Backend.SearchHybrid(ctx, kind, r, vec, k)
	}
	start := b.tr.now()
	ms, ok, err := b.Backend.SearchHybrid(ctx, kind, r, vec, k)
	b.timed(refOf(ctx), "search_hybrid", 0, start, len(ms))
	return ms, ok, err
}

func (b *tracedBackend) text(ctx context.Context, f func() ([]index.Match, error)) ([]index.Match, error) {
	if !b.tr.on.Load() {
		return f()
	}
	start := b.tr.now()
	ms, err := f()
	b.timed(refOf(ctx), "search_text", 0, start, len(ms))
	return ms, err
}

func (b *tracedBackend) SearchText(ctx context.Context, terms []string) ([]index.Match, error) {
	return b.text(ctx, func() ([]index.Match, error) { return b.Backend.SearchText(ctx, terms) })
}

func (b *tracedBackend) SearchTextAll(ctx context.Context, terms []string) ([]index.Match, error) {
	return b.text(ctx, func() ([]index.Match, error) { return b.Backend.SearchTextAll(ctx, terms) })
}

func (b *tracedBackend) SearchTime(ctx context.Context, from, to time.Time) ([]uint64, error) {
	if !b.tr.on.Load() {
		return b.Backend.SearchTime(ctx, from, to)
	}
	start := b.tr.now()
	ids, err := b.Backend.SearchTime(ctx, from, to)
	b.timed(refOf(ctx), "search_time", 0, start, len(ids))
	return ids, err
}
