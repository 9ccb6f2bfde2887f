package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/api"
	"repro/internal/geo"
	"repro/internal/store"
)

// checker verifies answers against the backend under test, read directly
// (not through the wrappers). When static is true the store has not
// changed since the answers were given, so result counts are checked
// against a brute-force reference too; otherwise only each hit's clause
// is checked.
type checker struct {
	st     store.Backend
	static bool
	ids    []uint64
	desc   map[uint64]store.Descriptor
	words  map[uint64]map[string]bool
	failed int
	notes  []string
}

func newChecker(st store.Backend, static bool) (*checker, error) {
	k := &checker{st: st, static: static, ids: st.ImageIDs(),
		desc: make(map[uint64]store.Descriptor), words: make(map[uint64]map[string]bool)}
	for _, id := range k.ids {
		d, err := st.Describe(id)
		if err != nil {
			return nil, fmt.Errorf("describe %d: %w", id, err)
		}
		k.desc[id] = d
		ws := map[string]bool{}
		for _, w := range normTerms(st.KeywordsFor(id)) {
			ws[w] = true
		}
		k.words[id] = ws
	}
	return k, nil
}

// fail records one wrong answer; the first few are kept for the report.
func (k *checker) fail(format string, args ...any) {
	k.failed++
	if len(k.notes) < 10 {
		k.notes = append(k.notes, fmt.Sprintf(format, args...))
	}
}

func rectOf(r api.SearchRequest) geo.Rect {
	s := r.Spatial
	return geo.Rect{MinLat: s.MinLat, MinLon: s.MinLon, MaxLat: s.MaxLat, MaxLon: s.MaxLon}
}

// search checks one search response; it returns false on a wrong answer.
func (k *checker) search(p searchParam, hits []api.SearchHit) bool {
	before := k.failed
	seen := map[uint64]bool{}
	for _, h := range hits {
		if seen[h.ID] {
			k.fail("%s: duplicate hit %d", searchKindNames[p.kind], h.ID)
		}
		seen[h.ID] = true
		if _, ok := k.desc[h.ID]; !ok {
			k.fail("%s: hit %d is not a stored image", searchKindNames[p.kind], h.ID)
		}
	}
	if k.failed > before {
		return false
	}
	n := len(k.ids)
	want := -1 // expected hit count; -1 when only clauses are checked
	req := p.req
	switch p.kind {
	case sVisual:
		// LSH returns up to K approximate neighbours; each must be scored
		// with its true distance, in ascending order. Recall against the
		// exact scan is measured separately.
		if len(hits) > searchK {
			k.fail("visual: %d hits, want at most %d", len(hits), searchK)
		}
		for i, h := range hits {
			if i > 0 && h.Score < hits[i-1].Score {
				k.fail("visual: scores not ascending at %d", i)
			}
			if d, ok := k.distance(req.Visual.Kind, req.Visual.Vector, h.ID); !ok || math.Abs(d-h.Score) > 1e-6*max(1, d) {
				k.fail("visual: hit %d scored %g, its distance is %g", h.ID, h.Score, d)
			}
		}
	case sSpatialVisual:
		r := rectOf(req)
		for _, h := range hits {
			if !k.desc[h.ID].Scene.Intersects(r) {
				k.fail("spatial+visual: hit %d outside the rectangle", h.ID)
			}
		}
		if k.static {
			want = min(searchLimit, k.count(func(d store.Descriptor) bool { return d.Scene.Intersects(r) }))
		}
	case sNearest:
		want = min(req.Near.K, n)
		pt := geo.Point{Lat: req.Near.Lat, Lon: req.Near.Lon}
		if k.static && len(hits) > 0 {
			worst := 0.0
			for _, h := range hits {
				worst = max(worst, geo.DistancePointRect(pt, k.desc[h.ID].Scene))
			}
			for _, id := range k.ids {
				if !seen[id] && geo.DistancePointRect(pt, k.desc[id].Scene) < worst-1e-9 {
					k.fail("nearest: image %d is closer than returned hits", id)
					break
				}
			}
		}
	case sTextual:
		terms := normTerms(req.Textual.Terms)
		match := func(id uint64) bool {
			for _, t := range terms {
				if k.words[id][t] {
					return true
				}
			}
			return false
		}
		for _, h := range hits {
			if !match(h.ID) {
				k.fail("textual: hit %d has none of %v", h.ID, terms)
			}
		}
		if k.static {
			want = min(searchLimit, k.count(func(d store.Descriptor) bool { return match(d.ID) }))
		}
	case sTemporal:
		r := rectOf(req)
		from, to := req.Temporal.From, req.Temporal.To
		in := func(d store.Descriptor) bool {
			return !d.CapturedAt.Before(from) && !d.CapturedAt.After(to) && d.Scene.Intersects(r)
		}
		for _, h := range hits {
			if !in(k.desc[h.ID]) {
				k.fail("temporal+spatial: hit %d outside the window or rectangle", h.ID)
			}
		}
		if k.static {
			want = min(searchLimit, k.count(in))
		}
	}
	if want >= 0 && len(hits) != want {
		k.fail("%s: %d hits, want %d", searchKindNames[p.kind], len(hits), want)
	}
	return k.failed == before
}

// distance is the L2 distance from vec to image id's stored feature.
func (k *checker) distance(kind string, vec []float64, id uint64) (float64, bool) {
	f, err := k.st.GetFeature(id, kind)
	if err != nil || len(f) != len(vec) {
		return 0, false
	}
	var ss float64
	for i := range f {
		d := f[i] - vec[i]
		ss += d * d
	}
	return math.Sqrt(ss), true
}

func (k *checker) count(pred func(store.Descriptor) bool) int {
	n := 0
	for _, id := range k.ids {
		if pred(k.desc[id]) {
			n++
		}
	}
	return n
}

// uploads checks the acked uploads after the pipeline drained: no
// duplicate IDs, every row stored with all three feature kinds, and the
// image count equal to preload plus acks.
func (k *checker) uploads(acked []uint64, preloaded int) {
	seen := map[uint64]bool{}
	for _, id := range acked {
		if id == 0 || seen[id] {
			k.fail("upload: duplicate or zero ID %d", id)
			continue
		}
		seen[id] = true
		have := k.st.FeatureKinds(id)
		for _, kind := range kinds {
			if !slices.Contains(have, kind) {
				k.fail("upload: image %d lacks feature %s after drain", id, kind)
			}
		}
	}
	if got, want := k.st.NumImages(), preloaded+len(acked); got != want {
		k.fail("upload: store holds %d images, want %d preloaded + %d acked", got, preloaded, len(acked))
	}
}

// canary uploads one record, waits until its last feature kind lands,
// and finds it through every search modality. It returns the ack →
// searchable time.
func (e *env) canary(ctx context.Context, k *checker, i int) (time.Duration, error) {
	req := e.c.canary[i]
	resp, err := e.client.UploadImageAsyncCtx(ctx, req)
	if err != nil {
		return 0, fmt.Errorf("canary %d upload: %w", i, err)
	}
	acked := time.Now()
	id := resp.ID
	var at time.Time
	for {
		var ok bool
		if at, ok = e.tr.visibleAt(id); ok {
			break
		}
		if time.Since(acked) > 30*time.Second {
			return 0, fmt.Errorf("canary %d (image %d) never became searchable", i, id)
		}
		time.Sleep(200 * time.Microsecond)
	}
	d, err := e.raw.Describe(id)
	if err != nil {
		return 0, fmt.Errorf("canary %d: %w", i, err)
	}
	k.desc[id] = d
	vec := map[string][]float64{}
	for _, kind := range kinds {
		if vec[kind], err = e.raw.GetFeature(id, kind); err != nil {
			return 0, fmt.Errorf("canary %d: %w", i, err)
		}
	}
	search := func(name string, r api.SearchRequest, check func([]api.SearchHit) bool) error {
		out, err := e.client.SearchCtx(ctx, r)
		if err != nil {
			return fmt.Errorf("canary %d %s search: %w", i, name, err)
		}
		if !check(out.Results) {
			k.fail("canary %d (image %d): %s search returned %v", i, id, name, out.Results)
		}
		return nil
	}
	first := func(hs []api.SearchHit) bool { return len(hs) > 0 && hs[0].ID == id }
	only := func(hs []api.SearchHit) bool { return len(hs) == 1 && hs[0].ID == id }
	scene := d.Scene
	// The parameter pool cycles through the five shapes, so its first
	// five entries are templates for the canary's searches.
	p := e.c.params
	visual, hybrid, near, text, temporal := p[sVisual].req, p[sSpatialVisual].req, p[sNearest].req, p[sTextual].req, p[sTemporal].req
	cnn := *visual.Visual
	cnn.Kind, cnn.Vector = kinds[2], vec[kinds[2]]
	visual.Visual = &cnn
	hv := *hybrid.Visual
	hv.Kind, hv.Vector = kinds[0], vec[kinds[0]]
	hs := *hybrid.Spatial
	hs.MinLat, hs.MinLon, hs.MaxLat, hs.MaxLon = scene.MinLat, scene.MinLon, scene.MaxLat, scene.MaxLon
	hybrid.Visual, hybrid.Spatial = &hv, &hs
	nr := *near.Near
	nr.Lat, nr.Lon, nr.K = d.FOV.Camera.Lat, d.FOV.Camera.Lon, 1
	near.Near = &nr
	tx := *text.Textual
	tx.Terms = []string{canaryWord(i)}
	text.Textual = &tx
	tm := *temporal.Temporal
	tm.From, tm.To = canaryTime(i).Add(-time.Minute), canaryTime(i).Add(time.Minute)
	temporal.Temporal = &tm
	ts := *temporal.Spatial
	ts.MinLat, ts.MinLon, ts.MaxLat, ts.MaxLon = scene.MinLat, scene.MinLon, scene.MaxLat, scene.MaxLon
	temporal.Spatial = &ts
	pt := d.FOV.Camera
	checks := []struct {
		name string
		req  api.SearchRequest
		ok   func([]api.SearchHit) bool
	}{
		{"visual", visual, func(hs []api.SearchHit) bool {
			return slices.ContainsFunc(hs, func(h api.SearchHit) bool { return h.ID == id })
		}},
		{"spatial+visual", hybrid, first},
		{"nearest", near, func(hs []api.SearchHit) bool {
			return len(hs) == 1 && geo.DistancePointRect(pt, k.descOf(hs[0].ID).Scene) <= geo.DistancePointRect(pt, scene)
		}},
		{"textual", text, only},
		{"temporal", temporal, only},
	}
	for _, c := range checks {
		if err := search(c.name, c.req, c.ok); err != nil {
			return 0, err
		}
	}
	return at.Sub(acked), nil
}

// descOf looks an image up, falling back to the store for rows added
// after the checker loaded.
func (k *checker) descOf(id uint64) store.Descriptor {
	if d, ok := k.desc[id]; ok {
		return d
	}
	d, err := k.st.Describe(id)
	if err == nil {
		k.desc[id] = d
	}
	return d
}

// recall is LSH top-10 against SearchVisualExact over the probe set.
func recall(ctx context.Context, st store.Backend, probes []probe) (float64, error) {
	var total float64
	for _, p := range probes {
		approx, err := st.SearchVisual(ctx, p.kind, p.vec, searchK)
		if err != nil {
			return 0, err
		}
		exact, err := st.SearchVisualExact(ctx, p.kind, p.vec, searchK)
		if err != nil {
			return 0, err
		}
		if len(exact) == 0 {
			total++
			continue
		}
		truth := map[uint64]bool{}
		for _, m := range exact {
			truth[m.ID] = true
		}
		hit := 0
		for _, m := range approx {
			if truth[m.ID] {
				hit++
			}
		}
		total += float64(hit) / float64(len(exact))
	}
	return total / float64(len(probes)), nil
}
