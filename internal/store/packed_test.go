package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/imagesim"
)

// The packed-pixel tests. testdata/segv1 is a segment-layout directory
// written before the packed pixel encoding, so every raster in it —
// segments and WAL tail alike — has gob's struct-per-pixel shape. It was
// generated once by running segv1Workload against a disk store opened
// with FlushThreshold 1 GiB and CompactSegments 100 (so only the
// workload's two forced flushes happen), then closing it (images are
// numbered by their index in the workload, not by ID):
//
//	MANIFEST          FlushedGen 2, live segments 1 and 2
//	seg-000001.seg    classification "scene" (1); images 0–9 with their
//	                  "hist" features and keywords; image 1 annotated
//	                  "littered"
//	seg-000002.seg    images 10–19; a tombstone for image 2; an
//	                  augmented flip of image 4 with a "hist" feature; a
//	                  three-frame video "survey" (its frames carry the
//	                  keyword "survey")
//	wal-000003.log    images 20–25; an "edge" feature on image 0; the
//	                  delete of image 12
const segv1Dir = "testdata/segv1"

// segv1Raster is a deterministic, non-square raster; zero channels
// cover the fields the struct-per-pixel shape omits.
func segv1Raster(i int) *imagesim.Image {
	px := imagesim.MustNew(12, 10)
	for y := 0; y < px.H; y++ {
		for x := 0; x < px.W; x++ {
			px.Set(x, y, imagesim.RGB{R: uint8(i*37 + x*11), G: uint8((y*13 + i) % 4 * 60), B: uint8(x * y * (i % 3))})
		}
	}
	return px
}

func segv1Vec(i int) []float64 {
	v := make([]float64, 8)
	for j := range v {
		v[j] = float64((i*7+j*3)%17) / 17
	}
	return v
}

// segv1Workload is the fixture's op script; flush runs at the two phase
// boundaries (a no-op on the memory-only reference store).
func segv1Workload(t *testing.T, s *Store, flush func()) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	class, err := s.CreateClassification("scene", []string{"clean", "littered"})
	must(err)
	base := time.Date(2019, 2, 1, 8, 0, 0, 0, time.UTC)
	fov := func(i int) geo.FOV {
		brg := float64(i * 29 % 360)
		return geo.FOV{Camera: geo.Destination(la, brg, float64(200+i*40)), Direction: brg, Angle: 60, Radius: 100}
	}
	var ids []uint64
	add := func(i int) {
		id, err := s.AddImage(Image{
			FOV:                fov(i),
			Pixels:             segv1Raster(i),
			TimestampCapturing: base.Add(time.Duration(i) * time.Minute),
			WorkerID:           fmt.Sprintf("w-%d", i%3),
		})
		must(err)
		must(s.PutFeature(id, "hist", segv1Vec(i)))
		must(s.AddKeywords(id, []string{fmt.Sprintf("cam%d", i%3), fmt.Sprintf("row%d", i)}))
		ids = append(ids, id)
	}
	for i := 0; i < 10; i++ {
		add(i)
	}
	must(s.Annotate(Annotation{ImageID: ids[1], ClassificationID: class, Label: 1, Confidence: 1, Source: SourceHuman, AnnotatedAt: base}))
	flush()
	for i := 10; i < 20; i++ {
		add(i)
	}
	must(s.DeleteImage(ids[2]))
	aug, err := s.AddAugmented(ids[4], imagesim.FlipH(segv1Raster(4)))
	must(err)
	must(s.PutFeature(aug, "hist", segv1Vec(4)))
	var frames []Frame
	for k := 0; k < 3; k++ {
		frames = append(frames, Frame{Pixels: segv1Raster(30 + k), FOV: fov(30 + k), CapturedAt: base.Add(time.Duration(k) * time.Second), Keywords: []string{"survey"}})
	}
	_, _, err = s.AddVideo("survey", "drone-1", frames)
	must(err)
	flush()
	for i := 20; i < 26; i++ {
		add(i)
	}
	must(s.PutFeature(ids[0], "edge", segv1Vec(40)))
	must(s.DeleteImage(ids[12]))
}

// requireSameStore checks that got holds exactly want's rows — every
// image with its pixels, features, keywords and annotations, and every
// video — and gives the same exact top-10 answers for a probe set.
func requireSameStore(t *testing.T, stage string, got, want *Store) {
	t.Helper()
	ids := want.ImageIDs()
	if g := got.ImageIDs(); !reflect.DeepEqual(g, ids) {
		t.Fatalf("%s: image IDs %v, want %v", stage, g, ids)
	}
	for _, id := range ids {
		g, err := got.GetImage(id)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		w, err := want.GetImage(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Pixels, w.Pixels) {
			t.Fatalf("%s: image %d pixels differ", stage, id)
		}
		if !g.TimestampCapturing.Equal(w.TimestampCapturing) || !g.TimestampUploading.Equal(w.TimestampUploading) {
			t.Fatalf("%s: image %d timestamps differ", stage, id)
		}
		g.Pixels, w.Pixels = nil, nil
		g.TimestampCapturing, w.TimestampCapturing = time.Time{}, time.Time{}
		g.TimestampUploading, w.TimestampUploading = time.Time{}, time.Time{}
		if g != w {
			t.Fatalf("%s: image %d = %+v, want %+v", stage, id, g, w)
		}
		kinds := want.FeatureKinds(id)
		if g := got.FeatureKinds(id); !reflect.DeepEqual(g, kinds) {
			t.Fatalf("%s: image %d feature kinds %v, want %v", stage, id, g, kinds)
		}
		for _, kind := range kinds {
			g, gerr := got.GetFeature(id, kind)
			w, werr := want.GetFeature(id, kind)
			if gerr != nil || werr != nil || !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: image %d feature %s = %v (%v), want %v (%v)", stage, id, kind, g, gerr, w, werr)
			}
		}
		if g, w := got.KeywordsFor(id), want.KeywordsFor(id); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: image %d keywords %v, want %v", stage, id, g, w)
		}
		g2, w2 := got.AnnotationsFor(id), want.AnnotationsFor(id)
		if len(g2) != len(w2) {
			t.Fatalf("%s: image %d has %d annotations, want %d", stage, id, len(g2), len(w2))
		}
		for i := range w2 {
			if g2[i].Label != w2[i].Label || g2[i].ClassificationID != w2[i].ClassificationID {
				t.Fatalf("%s: image %d annotation %d = %+v, want %+v", stage, id, i, g2[i], w2[i])
			}
		}
	}
	if g, w := got.Videos(), want.Videos(); len(g) != len(w) || len(w) != 1 || !reflect.DeepEqual(g[0].FrameIDs, w[0].FrameIDs) {
		t.Fatalf("%s: videos %+v, want %+v", stage, g, w)
	}
	ctx := context.Background()
	for _, probe := range []int{0, 5, 13, 21, 40} {
		for _, kind := range []string{"hist", "edge"} {
			g, gerr := got.SearchVisualExact(ctx, kind, segv1Vec(probe), 10)
			w, werr := want.SearchVisualExact(ctx, kind, segv1Vec(probe), 10)
			if gerr != nil || werr != nil || !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: %s top-10 for probe %d = %v (%v), want %v (%v)", stage, kind, probe, g, gerr, w, werr)
			}
		}
	}
	for _, term := range []string{"cam1", "survey", "row12"} {
		g, gerr := got.SearchText(ctx, []string{term})
		w, werr := want.SearchText(ctx, []string{term})
		if gerr != nil || werr != nil || !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: text search %q = %v (%v), want %v (%v)", stage, term, g, gerr, w, werr)
		}
	}
	g, gerr := got.SearchNearest(ctx, la, 10)
	w, werr := want.SearchNearest(ctx, la, 10)
	if gerr != nil || werr != nil || !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: nearest top-10 = %v (%v), want %v (%v)", stage, g, gerr, w, werr)
	}
}

// pixelShapes counts the image records in a segment that carry each
// pixel shape.
func pixelShapes(recs []*imageRecord) (structs, packed int) {
	for _, r := range recs {
		if len(r.Pixels.Pix) > 0 {
			structs++
		}
		if len(r.Pixels.Packed) > 0 {
			packed++
		}
	}
	return structs, packed
}

// walPixelShapes counts the add_image frames of a v2 log that carry each
// pixel shape, decoding the records without converting them.
func walPixelShapes(t *testing.T, path string) (structs, packed int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []*imageRecord
	for off := walHeaderSize; off < len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		var r walRecord
		if err := gob.NewDecoder(bytes.NewReader(data[off+walFrameHeaderSize : off+walFrameHeaderSize+n])).Decode(&r); err != nil {
			t.Fatal(err)
		}
		if r.Image != nil {
			recs = append(recs, r.Image)
		}
		off += walFrameHeaderSize + n
	}
	return pixelShapes(recs)
}

// TestSegmentV1Compatibility opens the struct-shaped fixture with the
// packed codec, checks every row and a probe set of exact top-10 answers
// against a memory-only replay of the same workload, then forces a
// flush and a compaction — whose output is packed — and checks the same
// answers again across a reopen.
func TestSegmentV1Compatibility(t *testing.T) {
	want := memStore(t)
	segv1Workload(t, want, func() {})

	dir := t.TempDir()
	if err := copyDirFiles(segv1Dir, dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{segName(1), segName(2)} {
		seg, err := readSegment(dir, name)
		if err != nil {
			t.Fatal(err)
		}
		if structs, packed := pixelShapes(seg.Images); structs == 0 || packed != 0 {
			t.Fatalf("fixture %s: %d struct-shaped and %d packed rasters, want only struct-shaped", name, structs, packed)
		}
	}
	if structs, packed := walPixelShapes(t, filepath.Join(dir, walName(3))); structs == 0 || packed != 0 {
		t.Fatalf("fixture WAL tail: %d struct-shaped and %d packed rasters, want only struct-shaped", structs, packed)
	}

	s := diskStore(t, dir)
	requireSameStore(t, "fixture", s, want)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.eng.compactOnce(); err != nil {
		t.Fatal(err)
	}
	if st := s.EngineStats(); st.Segments != 1 || st.Compactions != 1 {
		t.Fatalf("after flush + compaction: %+v, want one segment from one compaction", st)
	}
	requireSameStore(t, "compacted", s, want)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := readSegment(dir, man.Segments[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if structs, packed := pixelShapes(seg.Images); structs != 0 || packed != len(seg.Images) {
		t.Fatalf("compaction output: %d struct-shaped and %d packed of %d rasters, want all packed", structs, packed, len(seg.Images))
	}
	r := diskStore(t, dir)
	defer r.Close()
	requireSameStore(t, "reopened", r, want)
}

func randomRaster(rng *rand.Rand, w, h int) *imagesim.Image {
	px := imagesim.MustNew(w, h)
	for i := range px.Pix {
		px.Pix[i] = imagesim.RGB{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}
	}
	return px
}

// TestPackedPixelSizePin pins the packed encoding's size: a 48×48
// add_image frame costs its pixel bytes plus under 2 KiB (gob's
// type-descriptor prefix included), and a 200-row segment stays within
// 1.15× its raw pixel and feature bytes. The struct-per-pixel shape cost
// about 2.9× on both.
func TestPackedPixelSizePin(t *testing.T) {
	const w, h, rows, dims = 48, 48, 200, 64
	rng := rand.New(rand.NewSource(1))
	img := testImage(t, 30)
	img.ID = 1
	img.Pixels = randomRaster(rng, w, h)
	frame, err := encodeFrame(walOp{Kind: opAddImage, Image: &img})
	if err != nil {
		t.Fatal(err)
	}
	if limit := w*h*3 + 2<<10; len(frame) >= limit {
		t.Fatalf("48x48 add_image frame is %d bytes, want under %d", len(frame), limit)
	}
	t.Logf("48x48 add_image frame: %d bytes for %d pixel bytes", len(frame), w*h*3)

	cfg := DefaultConfig()
	cfg.Dir = t.TempDir()
	cfg.FlushThreshold = 1 << 30
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < rows; i++ {
		img := testImage(t, float64(i))
		img.Pixels = randomRaster(rng, w, h)
		id, err := s.AddImage(img)
		if err != nil {
			t.Fatal(err)
		}
		vec := make([]float64, dims)
		for j := range vec {
			vec[j] = rng.Float64()
		}
		if err := s.PutFeature(id, "hist", vec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st := s.EngineStats()
	raw := rows * (w*h*3 + dims*8)
	if st.Segments != 1 || float64(st.SegmentBytes) >= 1.15*float64(raw) {
		t.Fatalf("%d-row flush wrote %d segment(s), %d bytes, want one under 1.15 x %d raw bytes", rows, st.Segments, st.SegmentBytes, raw)
	}
	t.Logf("%d-row segment: %d bytes, %.3f x raw", rows, st.SegmentBytes, float64(st.SegmentBytes)/float64(raw))
}

// TestImageRecordMirrorsImage keeps the persisted image record in step
// with Image: a field added to one and not the other would be silently
// dropped on every write.
func TestImageRecordMirrorsImage(t *testing.T) {
	it, rt := reflect.TypeOf(Image{}), reflect.TypeOf(imageRecord{})
	if it.NumField() != rt.NumField() {
		t.Fatalf("Image has %d fields, imageRecord %d", it.NumField(), rt.NumField())
	}
	for i := 0; i < it.NumField(); i++ {
		f, r := it.Field(i), rt.Field(i)
		if f.Name != r.Name || (f.Name != "Pixels" && f.Type != r.Type) {
			t.Fatalf("field %d: Image.%s %s vs imageRecord.%s %s", i, f.Name, f.Type, r.Name, r.Type)
		}
	}
}

// TestRasterRecordRejectsMismatch checks both pixel shapes are refused
// when their length disagrees with W and H, and that a store never
// accepts such a raster in the first place.
func TestRasterRecordRejectsMismatch(t *testing.T) {
	for _, p := range []*pixelRecord{
		{W: 2, H: 2, Packed: make([]byte, 11)},
		{W: 2, H: 2, Packed: make([]byte, 9)},
		{W: -1, H: -3, Packed: make([]byte, 9)},
		{W: math.MaxInt, H: 4, Packed: make([]byte, 12)},
		{W: 2, H: 2, Pix: make([]imagesim.RGB, 3)},
		{W: 3, H: 3},
	} {
		if _, err := p.raster(); err == nil {
			t.Errorf("raster(%dx%d, %d packed, %d struct) accepted", p.W, p.H, len(p.Packed), len(p.Pix))
		}
	}
	s := memStore(t)
	img := testImage(t, 10)
	img.Pixels = &imagesim.Image{W: 4, H: 4, Pix: make([]imagesim.RGB, 15)}
	if _, err := s.AddImage(img); err == nil {
		t.Fatal("AddImage accepted a 4x4 raster holding 15 pixels")
	}
}

// BenchmarkSegmentCodec times a 200-row, 48×48 segment through gob in
// both pixel shapes: packed, as flush and compaction write it, and
// struct-per-pixel, as segments were written before (decoded through
// the same segmentData type recovery uses).
func BenchmarkSegmentCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := newMemtable()
	var rows []*Image
	for i := 1; i <= 200; i++ {
		img := &Image{ID: uint64(i), Origin: OriginOriginal, Pixels: randomRaster(rng, 48, 48), WorkerID: "w-1"}
		m.addImage(img)
		rows = append(rows, img)
	}
	shapes := map[string]any{
		"packed":        m.toSegment(false),
		"struct_pixels": struct{ Images []*Image }{rows},
	}
	for _, name := range []string{"packed", "struct_pixels"} {
		var payload []byte
		b.Run(name+"/encode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(shapes[name]); err != nil {
					b.Fatal(err)
				}
				payload = buf.Bytes()
			}
			b.ReportMetric(float64(len(payload)), "bytes")
		})
		b.Run(name+"/decode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seg, err := decodeSegment(payload)
				if err != nil {
					b.Fatal(err)
				}
				for _, rec := range seg.Images {
					if _, err := rec.image(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
