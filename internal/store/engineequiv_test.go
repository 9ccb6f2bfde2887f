package store

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

// Engine-equivalence tests: the persistence engine is a durability
// implementation detail, so a fixed op sequence must yield an identical
// Backend query surface whichever engine journals it — before a flush,
// after one, after compaction, and after recovery.

// equivWorkload drives the fixed mixed op sequence. checkpoint is called
// at the points where the segment engine is forced to flush, so the
// sequence spans multiple segments there (and is a no-op elsewhere).
func equivWorkload(t *testing.T, s *Store, checkpoint func()) {
	t.Helper()
	classID, err := s.CreateClassification("scene", []string{"clean", "littered"})
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for i := 0; i < 5; i++ {
		id, err := s.AddImage(tinyImage(t, float64(i*30)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := s.PutFeature(ids[0], "hist", []float64{0.25, 0.75}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutFeature(ids[1], "hist", []float64{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Annotate(Annotation{ImageID: ids[0], ClassificationID: classID, Label: 1, Confidence: 1, Source: SourceHuman}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddKeywords(ids[0], []string{"pole", "sidewalk"}); err != nil {
		t.Fatal(err)
	}
	checkpoint() // segment engines flush here: rows above land in seg A
	if _, err := s.CreateUser("w-1", "worker"); err != nil {
		t.Fatal(err)
	}
	img := tinyImage(t, 100)
	if _, _, err := s.AddVideo("survey", "w-1", []Frame{
		{Pixels: img.Pixels, FOV: img.FOV, CapturedAt: img.TimestampCapturing, Keywords: []string{"drone"}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateCampaign(CampaignRec{Name: "dtla", Region: geoRectAround(t), TargetCoverage: 0.5}); err != nil {
		t.Fatal(err)
	}
	// Delete a row that is already in seg A: the tombstone must kill it
	// across the segment boundary.
	if err := s.DeleteImage(ids[2]); err != nil {
		t.Fatal(err)
	}
	if err := s.Annotate(Annotation{ImageID: ids[1], ClassificationID: classID, Label: 0, Confidence: 0.9, Source: SourceMachine}); err != nil {
		t.Fatal(err)
	}
	checkpoint() // seg B: user, video, campaign, tombstone, annotation
	if _, err := s.AddImage(tinyImage(t, 200)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddKeywords(ids[3], []string{"lamp"}); err != nil {
		t.Fatal(err)
	}
	// The tail above stays in the WAL window — unflushed on purpose.
}

// querySurface renders every deterministic Backend read as one string —
// the comparison fingerprint. API keys are excluded (IssueAPIKey mints
// random keys, so two stores can never agree on them byte-for-byte).
func querySurface(t *testing.T, s *Store) string {
	t.Helper()
	ctx := context.Background()
	var b strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	p("num=%d gen-moves=n/a ids=%v last=%d", s.NumImages(), s.ImageIDs(), s.LastID())
	for _, id := range s.ImageIDs() {
		img, err := s.GetImage(id)
		if err != nil {
			t.Fatalf("GetImage(%d): %v", id, err)
		}
		p("img %d: fov=%+v ts=%s worker=%s scene=%+v", id, img.FOV, img.TimestampCapturing.UTC(), img.WorkerID, img.Scene)
		d, err := s.Describe(id)
		if err != nil {
			t.Fatalf("Describe(%d): %v", id, err)
		}
		p("desc %d: %+v", id, d)
		p("anns %d: %+v", id, s.AnnotationsFor(id))
		p("kw %d: %v", id, s.KeywordsFor(id))
		for _, kind := range s.FeatureKinds(id) {
			vec, err := s.GetFeature(id, kind)
			if err != nil {
				t.Fatal(err)
			}
			p("feat %d %s: %v", id, kind, vec)
		}
	}
	p("classes: %+v", s.Classifications())
	for _, c := range s.Classifications() {
		for label := range c.Labels {
			p("bylabel %d/%d: %v", c.ID, label, s.ImagesByLabel(c.ID, label))
		}
	}
	p("videos: %+v", s.Videos())
	p("campaigns: %+v", s.Campaigns())
	for _, c := range s.Campaigns() {
		p("campimgs %d: %v", c.ID, s.CampaignImages(c.ID))
	}
	region := geoRectAround(t)
	p("fovs: %d", len(s.FOVsInRegion(region)))
	scene, err := s.SearchScene(ctx, region)
	if err != nil {
		t.Fatal(err)
	}
	p("scene: %v", scene)
	near, err := s.SearchNearest(ctx, la, 3)
	if err != nil {
		t.Fatal(err)
	}
	p("nearest: %v", near)
	vis, err := s.SearchVisualExact(ctx, "hist", []float64{0.3, 0.7}, 2)
	if err != nil {
		t.Fatal(err)
	}
	p("visual: %+v", vis)
	text, err := s.SearchText(ctx, []string{"pole", "lamp"})
	if err != nil {
		t.Fatal(err)
	}
	p("text: %+v", text)
	from := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	to := time.Date(2019, 12, 31, 0, 0, 0, 0, time.UTC)
	tm, err := s.SearchTime(ctx, from, to)
	if err != nil {
		t.Fatal(err)
	}
	p("time: %v", tm)
	return b.String()
}

func diffSurfaces(t *testing.T, label, want, got string) {
	t.Helper()
	if want == got {
		return
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			t.Fatalf("%s: query surface diverges at line %d:\n  want %q\n  got  %q", label, i, wl[i], gl[i])
		}
	}
	t.Fatalf("%s: query surfaces differ in length (%d vs %d lines)", label, len(wl), len(gl))
}

// TestEngineEquivalence runs the fixed workload through a memory-only
// store (the reference: no persistence at all) and the segment engine
// (with forced flushes splitting it across segments) and requires
// identical query surfaces — live, after compaction, and after a reopen.
func TestEngineEquivalence(t *testing.T) {
	ref := memStore(t)
	equivWorkload(t, ref, func() {})
	want := querySurface(t, ref)

	segDir := t.TempDir()
	seg := diskStore(t, segDir)
	equivWorkload(t, seg, func() {
		if err := seg.Snapshot(); err != nil {
			t.Fatal(err)
		}
	})
	diffSurfaces(t, "segment live", want, querySurface(t, seg))
	if st := seg.EngineStats(); st.Segments != 2 {
		t.Fatalf("workload spread over %d segments, want 2", st.Segments)
	}
	if err := seg.eng.compactOnce(); err != nil {
		t.Fatal(err)
	}
	diffSurfaces(t, "segment compacted", want, querySurface(t, seg))

	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	seg2 := diskStore(t, segDir)
	defer seg2.Close()
	diffSurfaces(t, "segment reopened", want, querySurface(t, seg2))
}

// TestGenerationMovesOnEveryWrite pins the Backend contract the caches
// depend on: every data-plane write advances Generation(), on memory-only
// and segment-engine stores alike.
func TestGenerationMovesOnEveryWrite(t *testing.T) {
	for _, mode := range []string{"memory", "segment"} {
		t.Run(mode, func(t *testing.T) {
			cfg := DefaultConfig()
			if mode == "segment" {
				cfg.Dir = t.TempDir()
			}
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			classID, err := s.CreateClassification("scene", []string{"a", "b"})
			if err != nil {
				t.Fatal(err)
			}
			// Steps cover every data-plane mutation kind mutGen is
			// documented to count (store.go): images, features,
			// annotations, keywords, classifications, videos, deletes.
			// Users and campaigns are control-plane and excluded.
			var id uint64
			img := tinyImage(t, 100)
			steps := []struct {
				name string
				op   func() error
			}{
				{"CreateClassification", func() error { _, e := s.CreateClassification("scene2", []string{"x"}); return e }},
				{"AddImage", func() error { var e error; id, e = s.AddImage(tinyImage(t, 10)); return e }},
				{"PutFeature", func() error { return s.PutFeature(id, "hist", []float64{1}) }},
				{"Annotate", func() error {
					return s.Annotate(Annotation{ImageID: id, ClassificationID: classID, Label: 1, Confidence: 1, Source: SourceHuman})
				}},
				{"AddKeywords", func() error { return s.AddKeywords(id, []string{"k"}) }},
				{"AddVideo", func() error {
					_, _, e := s.AddVideo("v", "w", []Frame{{Pixels: img.Pixels, FOV: img.FOV, CapturedAt: img.TimestampCapturing}})
					return e
				}},
				{"DeleteImage", func() error { return s.DeleteImage(id) }},
			}
			for _, step := range steps {
				before := s.Generation()
				if err := step.op(); err != nil {
					t.Fatalf("%s: %v", step.name, err)
				}
				if after := s.Generation(); after <= before {
					t.Fatalf("%s: Generation() stuck at %d", step.name, after)
				}
			}
			// A flush is not a data-plane write; it must serve the same
			// generation (callers' caches stay warm across flushes).
			before := s.Generation()
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if after := s.Generation(); after != before {
				t.Fatalf("flush moved Generation() %d -> %d", before, after)
			}
		})
	}
}
