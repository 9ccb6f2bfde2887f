package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/feature"
	"repro/internal/geo"
	"repro/internal/imagesim"
	"repro/internal/synth"
)

var la = geo.Point{Lat: 34.0522, Lon: -118.2437}

func memStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func diskStore(t *testing.T, dir string) *Store {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Dir = dir
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testImage(t *testing.T, brg float64) Image {
	t.Helper()
	px := imagesim.MustNew(16, 16)
	px.Fill(imagesim.RGB{R: 100, G: 120, B: 140})
	cam := geo.Destination(la, brg, 500)
	return Image{
		FOV:                geo.FOV{Camera: cam, Direction: brg, Angle: 60, Radius: 100},
		Pixels:             px,
		TimestampCapturing: time.Date(2019, 2, 1, 8, 0, 0, 0, time.UTC).Add(time.Duration(brg) * time.Minute),
		WorkerID:           "w-1",
	}
}

func TestAddGetImage(t *testing.T) {
	s := memStore(t)
	id, err := s.AddImage(testImage(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("zero ID")
	}
	img, err := s.GetImage(id)
	if err != nil {
		t.Fatal(err)
	}
	if img.Origin != OriginOriginal {
		t.Fatalf("default origin = %q", img.Origin)
	}
	if !img.Scene.Contains(img.FOV.Camera) {
		t.Fatal("scene MBR must contain camera")
	}
	if img.TimestampUploading.IsZero() {
		t.Fatal("upload timestamp not defaulted")
	}
	if _, err := s.GetImage(9999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing image err = %v", err)
	}
	if s.NumImages() != 1 {
		t.Fatalf("NumImages = %d", s.NumImages())
	}
}

func TestAddImageValidation(t *testing.T) {
	s := memStore(t)
	bad := testImage(t, 0)
	bad.FOV.Angle = 0
	if _, err := s.AddImage(bad); !errors.Is(err, ErrInvalid) {
		t.Fatalf("invalid FOV err = %v", err)
	}
	bad = testImage(t, 0)
	bad.Pixels = nil
	if _, err := s.AddImage(bad); !errors.Is(err, ErrInvalid) {
		t.Fatalf("nil pixels err = %v", err)
	}
}

func TestSpatialTemporalSearch(t *testing.T) {
	s := memStore(t)
	var ids []uint64
	for i := 0; i < 10; i++ {
		id, err := s.AddImage(testImage(t, float64(i*36)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// A rect around the whole city finds everything.
	all, _ := s.SearchScene(context.Background(), geo.NewRect(geo.Destination(la, 315, 3000), geo.Destination(la, 135, 3000)))
	if len(all) != 10 {
		t.Fatalf("city-wide search found %d", len(all))
	}
	// Nearest to the camera of image 0.
	img0, _ := s.GetImage(ids[0])
	near, _ := s.SearchNearest(context.Background(), img0.FOV.Camera, 3)
	if len(near) != 3 || near[0] != ids[0] {
		t.Fatalf("nearest = %v", near)
	}
	// Temporal window covering the first three captures only.
	from := time.Date(2019, 2, 1, 8, 0, 0, 0, time.UTC)
	got, _ := s.SearchTime(context.Background(), from, from.Add(73*time.Minute))
	if len(got) != 3 {
		t.Fatalf("temporal window found %d", len(got))
	}
}

func TestFeaturesAndVisualSearch(t *testing.T) {
	s := memStore(t)
	var ids []uint64
	for i := 0; i < 20; i++ {
		id, _ := s.AddImage(testImage(t, float64(i*18)))
		ids = append(ids, id)
		vec := []float64{float64(i), float64(i), 0, 0}
		if err := s.PutFeature(id, "color_hist", vec); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.SearchVisual(context.Background(), "color_hist", []float64{5, 5, 0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != ids[5] {
		t.Fatalf("visual top-1 = %+v, want id %d", got, ids[5])
	}
	exact, err := s.SearchVisualExact(context.Background(), "color_hist", []float64{5, 5, 0, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if exact[0].ID != ids[5] {
		t.Fatalf("exact top = %+v", exact)
	}
	within, err := s.SearchVisualRadius(context.Background(), "color_hist", []float64{5, 5, 0, 0}, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(within) == 0 || within[0].ID != ids[5] {
		t.Fatalf("radius results = %+v", within)
	}
	if _, err := s.SearchVisual(context.Background(), "nope", []float64{1}, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown kind err = %v", err)
	}
	if _, err := s.GetFeature(ids[0], "nope"); !errors.Is(err, ErrUnknownFeature) {
		t.Fatalf("unknown feature err = %v", err)
	}
	kinds := s.FeatureKinds(ids[0])
	if len(kinds) != 1 || kinds[0] != "color_hist" {
		t.Fatalf("kinds = %v", kinds)
	}
	if err := s.PutFeature(999, "x", []float64{1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("feature for missing image err = %v", err)
	}
	if err := s.PutFeature(ids[0], "", nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty feature err = %v", err)
	}
}

func TestHybridSearch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HybridKinds = []string{string(feature.KindColorHist)}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 30; i++ {
		id, _ := s.AddImage(testImage(t, float64(i*12)))
		if err := s.PutFeature(id, string(feature.KindColorHist), []float64{float64(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	everywhere := geo.NewRect(geo.Destination(la, 315, 3000), geo.Destination(la, 135, 3000))
	ms, ok, err := s.SearchHybrid(context.Background(), string(feature.KindColorHist), everywhere, []float64{3, 1}, 2)
	if err != nil || !ok {
		t.Fatalf("hybrid search ok=%v err=%v", ok, err)
	}
	if len(ms) != 2 || ms[0].Dist != 0 {
		t.Fatalf("hybrid results = %+v", ms)
	}
	// A kind without a hybrid tree reports ok=false.
	if _, ok, err := s.SearchHybrid(context.Background(), "other", everywhere, []float64{1}, 2); ok || err != nil {
		t.Fatalf("missing hybrid: ok=%v err=%v", ok, err)
	}
}

func TestClassificationsAndAnnotations(t *testing.T) {
	s := memStore(t)
	id, _ := s.AddImage(testImage(t, 0))
	classID, err := s.CreateClassification("street_cleanliness", synth.ClassNames[:])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateClassification("street_cleanliness", synth.ClassNames[:]); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate classification err = %v", err)
	}
	if _, err := s.CreateClassification("", nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty classification err = %v", err)
	}
	c, err := s.ClassificationByName("street_cleanliness")
	if err != nil || c.ID != classID || len(c.Labels) != 5 {
		t.Fatalf("by name: %+v err=%v", c, err)
	}
	ann := Annotation{
		ImageID: id, ClassificationID: classID, Label: int(synth.Encampment),
		Confidence: 0.9, Source: SourceMachine,
		AnnotatedAt: time.Date(2019, 2, 2, 0, 0, 0, 0, time.UTC),
	}
	if err := s.Annotate(ann); err != nil {
		t.Fatal(err)
	}
	bad := ann
	bad.Label = 99
	if err := s.Annotate(bad); !errors.Is(err, ErrUnknownLabel) {
		t.Fatalf("bad label err = %v", err)
	}
	bad = ann
	bad.ImageID = 999
	if err := s.Annotate(bad); !errors.Is(err, ErrNotFound) {
		t.Fatalf("bad image err = %v", err)
	}
	bad = ann
	bad.ClassificationID = 999
	if err := s.Annotate(bad); !errors.Is(err, ErrNotFound) {
		t.Fatalf("bad classification err = %v", err)
	}
	got := s.AnnotationsFor(id)
	if len(got) != 1 || got[0].Label != int(synth.Encampment) {
		t.Fatalf("annotations = %+v", got)
	}
	byLabel := s.ImagesByLabel(classID, int(synth.Encampment))
	if len(byLabel) != 1 || byLabel[0] != id {
		t.Fatalf("by label = %v", byLabel)
	}
	if got := s.ImagesByLabel(classID, int(synth.Clean)); len(got) != 0 {
		t.Fatalf("unexpected clean images: %v", got)
	}
	all := s.Classifications()
	if len(all) != 1 || all[0].Name != "street_cleanliness" {
		t.Fatalf("classifications = %+v", all)
	}
}

func TestKeywordsAndTextSearch(t *testing.T) {
	s := memStore(t)
	id1, _ := s.AddImage(testImage(t, 0))
	id2, _ := s.AddImage(testImage(t, 90))
	if err := s.AddKeywords(id1, []string{"tent", "homeless"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddKeywords(id2, []string{"trash"}); err != nil {
		t.Fatal(err)
	}
	got, _ := s.SearchText(context.Background(), []string{"tent"})
	if len(got) != 1 || got[0].ID != id1 {
		t.Fatalf("text search = %+v", got)
	}
	all, _ := s.SearchTextAll(context.Background(), []string{"tent", "homeless"})
	if len(all) != 1 || all[0].ID != id1 {
		t.Fatalf("conjunctive = %+v", all)
	}
	if kw := s.KeywordsFor(id1); len(kw) != 2 {
		t.Fatalf("keywords = %v", kw)
	}
	if err := s.AddKeywords(999, []string{"x"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("keywords for missing err = %v", err)
	}
	if err := s.AddKeywords(id1, nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty keywords err = %v", err)
	}
}

func TestDeleteImageCascades(t *testing.T) {
	s := memStore(t)
	id, _ := s.AddImage(testImage(t, 0))
	classID, _ := s.CreateClassification("c", []string{"a", "b"})
	_ = s.PutFeature(id, "f", []float64{1, 2})
	_ = s.Annotate(Annotation{ImageID: id, ClassificationID: classID, Label: 0, Confidence: 1})
	_ = s.AddKeywords(id, []string{"tent"})
	if err := s.DeleteImage(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetImage(id); !errors.Is(err, ErrNotFound) {
		t.Fatal("image still present")
	}
	if got, _ := s.SearchText(context.Background(), []string{"tent"}); len(got) != 0 {
		t.Fatal("text index not cleaned")
	}
	if got := s.ImagesByLabel(classID, 0); len(got) != 0 {
		t.Fatal("label index not cleaned")
	}
	if got, err := s.SearchVisual(context.Background(), "f", []float64{1, 2}, 1); err != nil || len(got) != 0 {
		t.Fatalf("visual index not cleaned: %v %v", got, err)
	}
	if err := s.DeleteImage(id); !errors.Is(err, ErrNotFound) {
		t.Fatal("double delete accepted")
	}
}

func TestUsersAndAPIKeys(t *testing.T) {
	s := memStore(t)
	uid, err := s.CreateUser("LASAN", "government")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateUser("", ""); !errors.Is(err, ErrInvalid) {
		t.Fatal("empty user accepted")
	}
	key, err := s.IssueAPIKey(uid, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(key) != 32 {
		t.Fatalf("key length = %d", len(key))
	}
	u, err := s.Authenticate(key)
	if err != nil || u.ID != uid || u.Name != "LASAN" {
		t.Fatalf("authenticate: %+v err=%v", u, err)
	}
	if _, err := s.Authenticate("bogus"); !errors.Is(err, ErrNotFound) {
		t.Fatal("bogus key accepted")
	}
	if _, err := s.IssueAPIKey(999, time.Now()); !errors.Is(err, ErrNotFound) {
		t.Fatal("key for missing user accepted")
	}
	if _, err := s.GetUser(uid); err != nil {
		t.Fatal(err)
	}
}

func populate(t *testing.T, s *Store, n int) []uint64 {
	t.Helper()
	classID, err := s.CreateClassification("street_cleanliness", synth.ClassNames[:])
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for i := 0; i < n; i++ {
		id, err := s.AddImage(testImage(t, float64(i*7%360)))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutFeature(id, "color_hist", []float64{float64(i), 1, 2}); err != nil {
			t.Fatal(err)
		}
		if err := s.Annotate(Annotation{ImageID: id, ClassificationID: classID, Label: i % 5, Confidence: 1, Source: SourceHuman}); err != nil {
			t.Fatal(err)
		}
		if err := s.AddKeywords(id, []string{fmt.Sprintf("kw%d", i%3)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	ids := populate(t, s, 25)
	uid, _ := s.CreateUser("usc", "research")
	key, _ := s.IssueAPIKey(uid, time.Unix(1e9, 0).UTC())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := diskStore(t, dir)
	defer r.Close()
	if r.NumImages() != 25 {
		t.Fatalf("recovered %d images", r.NumImages())
	}
	img, err := r.GetImage(ids[3])
	if err != nil {
		t.Fatal(err)
	}
	if img.Pixels == nil || img.Pixels.W != 16 {
		t.Fatal("pixels not recovered")
	}
	vec, err := r.GetFeature(ids[3], "color_hist")
	if err != nil || vec[0] != 3 {
		t.Fatalf("feature not recovered: %v %v", vec, err)
	}
	c, err := r.ClassificationByName("street_cleanliness")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ImagesByLabel(c.ID, 2); len(got) != 5 {
		t.Fatalf("label index not rebuilt: %v", got)
	}
	if got, _ := r.SearchText(context.Background(), []string{"kw1"}); len(got) == 0 {
		t.Fatal("text index not rebuilt")
	}
	if got, err := r.SearchVisual(context.Background(), "color_hist", []float64{3, 1, 2}, 1); err != nil || got[0].ID != ids[3] {
		t.Fatalf("visual index not rebuilt: %v %v", got, err)
	}
	if u, err := r.Authenticate(key); err != nil || u.ID != uid {
		t.Fatalf("api key not recovered: %v", err)
	}
	// New writes after recovery get fresh IDs.
	newID, err := r.AddImage(testImage(t, 42))
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range ids {
		if newID == old {
			t.Fatal("ID collision after recovery")
		}
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	populate(t, s, 10)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot writes land in the fresh WAL.
	id, err := s.AddImage(testImage(t, 200))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := diskStore(t, dir)
	defer r.Close()
	if r.NumImages() != 11 {
		t.Fatalf("recovered %d images after snapshot+wal", r.NumImages())
	}
	if _, err := r.GetImage(id); err != nil {
		t.Fatal("post-snapshot image lost")
	}
	// Snapshot twice in a row is fine.
	if err := r.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	ids := populate(t, s, 5)
	if err := s.DeleteImage(ids[2]); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r := diskStore(t, dir)
	defer r.Close()
	if r.NumImages() != 4 {
		t.Fatalf("recovered %d images", r.NumImages())
	}
	if _, err := r.GetImage(ids[2]); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted image resurrected")
	}
}

func TestClosedStoreRejectsWrites(t *testing.T) {
	s, err := Open(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddImage(testImage(t, 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close err = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	s := memStore(t)
	populate(t, s, 10)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				img := testImage(t, float64((w*20+i)%360))
				if _, err := s.AddImage(img); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.SearchScene(context.Background(), geo.NewRect(geo.Destination(la, 315, 3000), geo.Destination(la, 135, 3000)))
				s.SearchText(context.Background(), []string{"kw1"})
				s.NumImages()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s.NumImages() != 90 {
		t.Fatalf("NumImages = %d, want 90", s.NumImages())
	}
}

func TestImageIDsSorted(t *testing.T) {
	s := memStore(t)
	populate(t, s, 7)
	ids := s.ImageIDs()
	if len(ids) != 7 {
		t.Fatalf("ids = %v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("ids not ascending")
		}
	}
}

func testFrame(t *testing.T, brg float64, at time.Time) Frame {
	t.Helper()
	px := imagesim.MustNew(16, 16)
	cam := geo.Destination(la, brg, 400)
	return Frame{
		Pixels:     px,
		FOV:        geo.FOV{Camera: cam, Direction: brg, Angle: 70, Radius: 150},
		CapturedAt: at,
		Keywords:   []string{"drone"},
	}
}

func TestAddVideoAndFrames(t *testing.T) {
	s := memStore(t)
	base := time.Date(2019, 4, 1, 9, 0, 0, 0, time.UTC)
	frames := []Frame{
		testFrame(t, 0, base),
		testFrame(t, 10, base.Add(2*time.Second)),
		testFrame(t, 20, base.Add(4*time.Second)),
	}
	vid, frameIDs, err := s.AddVideo("survey flight", "drone-1", frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(frameIDs) != 3 {
		t.Fatalf("frame ids = %v", frameIDs)
	}
	v, err := s.GetVideo(vid)
	if err != nil {
		t.Fatal(err)
	}
	if v.Description != "survey flight" || len(v.FrameIDs) != 3 {
		t.Fatalf("video = %+v", v)
	}
	if !v.Start.Equal(base) || !v.End.Equal(base.Add(4*time.Second)) {
		t.Fatalf("video time bounds = %v..%v", v.Start, v.End)
	}
	// Frames are full images: spatial, temporal, and text queries see them.
	for i, id := range frameIDs {
		img, err := s.GetImage(id)
		if err != nil {
			t.Fatal(err)
		}
		if img.VideoID != vid || img.FrameIndex != i {
			t.Fatalf("frame %d linkage = %+v", i, img)
		}
	}
	if got, _ := s.SearchTime(context.Background(), base, base.Add(2*time.Second)); len(got) != 2 {
		t.Fatalf("temporal frame query = %v", got)
	}
	if got, _ := s.SearchText(context.Background(), []string{"drone"}); len(got) != 3 {
		t.Fatalf("text frame query = %v", got)
	}
	if _, err := s.GetVideo(9999); !errors.Is(err, ErrNotFound) {
		t.Fatal("missing video err wrong")
	}
	if vids := s.Videos(); len(vids) != 1 || vids[0].ID != vid {
		t.Fatalf("videos = %+v", vids)
	}
}

func TestAddVideoValidation(t *testing.T) {
	s := memStore(t)
	if _, _, err := s.AddVideo("x", "w", nil); !errors.Is(err, ErrInvalid) {
		t.Fatal("empty frames accepted")
	}
	bad := testFrame(t, 0, time.Now())
	bad.Pixels = nil
	if _, _, err := s.AddVideo("x", "w", []Frame{bad}); !errors.Is(err, ErrInvalid) {
		t.Fatal("nil pixels accepted")
	}
	bad = testFrame(t, 0, time.Now())
	bad.FOV.Radius = -1
	if _, _, err := s.AddVideo("x", "w", []Frame{bad}); !errors.Is(err, ErrInvalid) {
		t.Fatal("bad FOV accepted")
	}
	// Validation failures must not leave partial state behind.
	if s.NumImages() != 0 {
		t.Fatalf("partial video state: %d images", s.NumImages())
	}
}

func TestVideoSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	base := time.Date(2019, 4, 1, 9, 0, 0, 0, time.UTC)
	vid, frameIDs, err := s.AddVideo("flight", "drone-1", []Frame{
		testFrame(t, 0, base), testFrame(t, 5, base.Add(time.Second)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// A second video after the snapshot exercises WAL replay too.
	vid2, _, err := s.AddVideo("flight 2", "drone-2", []Frame{testFrame(t, 30, base.Add(time.Hour))})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	r := diskStore(t, dir)
	defer r.Close()
	v, err := r.GetVideo(vid)
	if err != nil || len(v.FrameIDs) != 2 {
		t.Fatalf("video 1 recovery: %+v err=%v", v, err)
	}
	if _, err := r.GetVideo(vid2); err != nil {
		t.Fatalf("video 2 recovery: %v", err)
	}
	if _, err := r.GetImage(frameIDs[0]); err != nil {
		t.Fatalf("frame recovery: %v", err)
	}
}

func TestAddAugmented(t *testing.T) {
	s := memStore(t)
	parentID, err := s.AddImage(testImage(t, 45))
	if err != nil {
		t.Fatal(err)
	}
	aug := imagesim.MustNew(16, 16)
	augID, err := s.AddAugmented(parentID, aug)
	if err != nil {
		t.Fatal(err)
	}
	img, err := s.GetImage(augID)
	if err != nil {
		t.Fatal(err)
	}
	parent, _ := s.GetImage(parentID)
	if img.Origin != OriginAugmented || img.ParentID != parentID {
		t.Fatalf("augmented = %+v", img)
	}
	if img.FOV != parent.FOV || !img.TimestampCapturing.Equal(parent.TimestampCapturing) {
		t.Fatal("augmented must inherit spatial/temporal descriptors")
	}
	got := s.AugmentedOf(parentID)
	if len(got) != 1 || got[0] != augID {
		t.Fatalf("AugmentedOf = %v", got)
	}
	if _, err := s.AddAugmented(9999, aug); !errors.Is(err, ErrNotFound) {
		t.Fatal("missing parent accepted")
	}
	if _, err := s.AddAugmented(parentID, nil); !errors.Is(err, ErrInvalid) {
		t.Fatal("nil pixels accepted")
	}
}

func TestCampaigns(t *testing.T) {
	s := memStore(t)
	region := geo.NewRect(geo.Destination(la, 315, 1000), geo.Destination(la, 135, 1000))
	id, err := s.CreateCampaign(CampaignRec{
		Name: "dtla-sweep", Region: region, TargetCoverage: 0.9,
		CreatedAt: time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.GetCampaign(id)
	if err != nil || c.Name != "dtla-sweep" {
		t.Fatalf("campaign = %+v err=%v", c, err)
	}
	if _, err := s.GetCampaign(9999); !errors.Is(err, ErrNotFound) {
		t.Fatal("missing campaign err wrong")
	}
	if got := s.Campaigns(); len(got) != 1 {
		t.Fatalf("campaigns = %+v", got)
	}
	// Validation.
	if _, err := s.CreateCampaign(CampaignRec{Region: region, TargetCoverage: 0.5}); !errors.Is(err, ErrInvalid) {
		t.Fatal("nameless campaign accepted")
	}
	if _, err := s.CreateCampaign(CampaignRec{Name: "x", TargetCoverage: 0.5}); !errors.Is(err, ErrInvalid) {
		t.Fatal("degenerate region accepted")
	}
	if _, err := s.CreateCampaign(CampaignRec{Name: "x", Region: region, TargetCoverage: 0}); !errors.Is(err, ErrInvalid) {
		t.Fatal("zero target accepted")
	}
	// Images attach to campaigns.
	img := testImage(t, 20)
	img.CampaignID = id
	imgID, err := s.AddImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.CampaignImages(id); len(got) != 1 || got[0] != imgID {
		t.Fatalf("campaign images = %v", got)
	}
	if got := s.CampaignImages(9999); len(got) != 0 {
		t.Fatal("phantom campaign images")
	}
}

func TestCampaignSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	region := geo.NewRect(geo.Destination(la, 315, 500), geo.Destination(la, 135, 500))
	id, err := s.CreateCampaign(CampaignRec{Name: "c", Region: region, TargetCoverage: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	id2, err := s.CreateCampaign(CampaignRec{Name: "c2", Region: region, TargetCoverage: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	r := diskStore(t, dir)
	defer r.Close()
	if _, err := r.GetCampaign(id); err != nil {
		t.Fatalf("snapshot campaign lost: %v", err)
	}
	if _, err := r.GetCampaign(id2); err != nil {
		t.Fatalf("wal campaign lost: %v", err)
	}
}

func TestFOVsInRegion(t *testing.T) {
	s := memStore(t)
	for i := 0; i < 8; i++ {
		if _, err := s.AddImage(testImage(t, float64(i*45))); err != nil {
			t.Fatal(err)
		}
	}
	everywhere := geo.NewRect(geo.Destination(la, 315, 3000), geo.Destination(la, 135, 3000))
	if got := s.FOVsInRegion(everywhere); len(got) != 8 {
		t.Fatalf("city-wide FOVs = %d", len(got))
	}
	nowhere := geo.NewRect(geo.Destination(la, 0, 50000), geo.Destination(la, 0, 51000))
	if got := s.FOVsInRegion(nowhere); len(got) != 0 {
		t.Fatalf("remote FOVs = %d", len(got))
	}
}

func TestMemoryStoreSnapshotIsNoop(t *testing.T) {
	s := memStore(t)
	if err := s.Snapshot(); err != nil {
		t.Fatalf("memory snapshot err = %v", err)
	}
}

func TestFeatureKindsUnknownImageEmpty(t *testing.T) {
	s := memStore(t)
	if kinds := s.FeatureKinds(999); len(kinds) != 0 {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestExplicitUploadTimestampPreserved(t *testing.T) {
	s := memStore(t)
	img := testImage(t, 5)
	up := img.TimestampCapturing.Add(2 * time.Hour)
	img.TimestampUploading = up
	id, err := s.AddImage(img)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := s.GetImage(id)
	if !got.TimestampUploading.Equal(up) {
		t.Fatalf("upload time = %v, want %v", got.TimestampUploading, up)
	}
}
