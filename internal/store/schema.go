// Package store is TVDP's embedded storage engine. It implements the
// paper's Fig. 2 ER schema — Images with FOV and scene-location spatial
// descriptors, visual features, content classifications and annotations,
// manual keywords, users and API keys — over an in-memory table set with
// write-ahead-log durability and segment persistence, plus the secondary
// indexes of §IV-C (R-tree, LSH, inverted, temporal) maintained on write.
package store

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/imagesim"
)

// ImageOrigin distinguishes original captures from augmented derivatives
// (paper §IV-B).
type ImageOrigin string

// Image origins.
const (
	OriginOriginal  ImageOrigin = "original"
	OriginAugmented ImageOrigin = "augmented"
)

// AnnotationSource distinguishes the two annotation paths of §IV-A.
type AnnotationSource string

// Annotation sources.
const (
	SourceHuman   AnnotationSource = "human"
	SourceMachine AnnotationSource = "machine"
)

// Image is the Images entity: one stored visual datum (a video is stored
// as a sequence of key-frame Images, each with its own FOV).
type Image struct {
	ID uint64
	// Origin marks originals vs augmented derivatives; augmented images
	// reference their source via ParentID.
	Origin   ImageOrigin
	ParentID uint64
	// FOV is the spatial descriptor (camera GPS, direction θ, angle α,
	// visible distance R).
	FOV geo.FOV
	// Scene is the derived scene-location MBR, precomputed at ingest.
	Scene geo.Rect
	// Pixels is the raster payload.
	Pixels *imagesim.Image
	// TimestampCapturing / TimestampUploading are the temporal
	// descriptors.
	TimestampCapturing time.Time
	TimestampUploading time.Time
	// WorkerID identifies the capturing device/worker; CampaignID links
	// crowdsourced captures to their campaign (0 = none).
	WorkerID   string
	CampaignID uint64
	// VideoID links video key frames to their Video entity (0 = a still
	// image); FrameIndex orders frames within the video.
	VideoID    uint64
	FrameIndex int
}

// Feature is the Image_Visual_Features entity: one feature vector of one
// family for one image.
type Feature struct {
	ImageID uint64
	Kind    string
	Vec     []float64
}

// Classification is the Image_Content_Classification entity: one named
// labelling scheme (e.g. "street_cleanliness") with its label vocabulary
// (Image_Content_Classification_Types).
type Classification struct {
	ID     uint64
	Name   string
	Labels []string
}

// Annotation is the Image_Content_Annotation entity: one label assigned
// to an image (or a region of it) under a classification scheme.
type Annotation struct {
	ImageID          uint64
	ClassificationID uint64
	// Label indexes into the classification's Labels.
	Label int
	// Confidence is 1 for human annotations, the model score otherwise.
	Confidence float64
	Source     AnnotationSource
	// Region optionally bounds the annotated part of the image in pixel
	// coordinates (nil = whole image).
	Region *PixelRect
	// AnnotatedAt records when the annotation was produced.
	AnnotatedAt time.Time
}

// PixelRect is an image-space bounding box.
type PixelRect struct {
	X0, Y0, X1, Y1 int
}

// User is a platform participant (government, researcher, community or
// academic partner).
type User struct {
	ID   uint64
	Name string
	Role string
}

// APIKey authorises REST access for a user.
type APIKey struct {
	Key    string
	UserID uint64
	Issued time.Time
}

// Errors returned by store operations.
var (
	ErrNotFound       = errors.New("store: not found")
	ErrClosed         = errors.New("store: closed")
	ErrInvalid        = errors.New("store: invalid argument")
	ErrDuplicate      = errors.New("store: duplicate")
	ErrUnknownLabel   = errors.New("store: label out of range for classification")
	ErrUnknownFeature = errors.New("store: no such feature kind for image")
	// ErrWALCorrupt flags mid-log damage recovery cannot repair: a frame
	// that fails its checksum (or is otherwise impossible) with intact
	// data behind it. A torn tail is NOT corruption — that is repaired on
	// open by truncating to the last whole frame.
	ErrWALCorrupt = errors.New("store: WAL corrupt")
)

// imageRecord is an Image as the store persists it: in WAL frames
// (walRecord), segments (segmentData) and the legacy snapshot
// (snapshotState). It mirrors Image field for field except Pixels. gob
// matches struct fields by name, not by type, so every file written
// before the packed pixel encoding decodes into it unchanged.
type imageRecord struct {
	ID                 uint64
	Origin             ImageOrigin
	ParentID           uint64
	FOV                geo.FOV
	Scene              geo.Rect
	Pixels             *pixelRecord
	TimestampCapturing time.Time
	TimestampUploading time.Time
	WorkerID           string
	CampaignID         uint64
	VideoID            uint64
	FrameIndex         int
}

// pixelRecord is a raster as the store persists it. Writes set W, H and
// Packed: the pixels' R, G, B bytes, row-major, one gob byte string of
// W·H·3 bytes. Pix is the shape written before that — gob's encoding of
// imagesim.Image.Pix, one struct per pixel, about three times the bytes
// and an order of magnitude more codec time. It is decoded, never
// written, and needs no format version: a record carries one shape or
// the other, and gob omits the empty one.
type pixelRecord struct {
	W, H   int
	Pix    []imagesim.RGB
	Packed []byte
}

// newImageRecord returns img in its persisted shape, pixels packed.
func newImageRecord(img *Image) *imageRecord {
	return &imageRecord{
		ID:                 img.ID,
		Origin:             img.Origin,
		ParentID:           img.ParentID,
		FOV:                img.FOV,
		Scene:              img.Scene,
		Pixels:             packPixels(img.Pixels),
		TimestampCapturing: img.TimestampCapturing,
		TimestampUploading: img.TimestampUploading,
		WorkerID:           img.WorkerID,
		CampaignID:         img.CampaignID,
		VideoID:            img.VideoID,
		FrameIndex:         img.FrameIndex,
	}
}

// image returns the stored row a record describes. A raster whose size
// disagrees with its pixel count is corruption.
func (r *imageRecord) image() (*Image, error) {
	px, err := r.Pixels.raster()
	if err != nil {
		return nil, fmt.Errorf("image %d: %w", r.ID, err)
	}
	return &Image{
		ID:                 r.ID,
		Origin:             r.Origin,
		ParentID:           r.ParentID,
		FOV:                r.FOV,
		Scene:              r.Scene,
		Pixels:             px,
		TimestampCapturing: r.TimestampCapturing,
		TimestampUploading: r.TimestampUploading,
		WorkerID:           r.WorkerID,
		CampaignID:         r.CampaignID,
		VideoID:            r.VideoID,
		FrameIndex:         r.FrameIndex,
	}, nil
}

func packPixels(m *imagesim.Image) *pixelRecord {
	if m == nil {
		return nil
	}
	packed := make([]byte, 3*len(m.Pix))
	for i, c := range m.Pix {
		packed[3*i], packed[3*i+1], packed[3*i+2] = c.R, c.G, c.B
	}
	return &pixelRecord{W: m.W, H: m.H, Packed: packed}
}

// raster decodes either pixel shape. The packed length is checked
// against W·H·3 before the raster is allocated, so a damaged record
// costs at most the bytes it occupies.
func (p *pixelRecord) raster() (*imagesim.Image, error) {
	if p == nil {
		return nil, nil
	}
	switch {
	case len(p.Packed) > 0:
		if len(p.Packed)%3 != 0 || !rasterFits(p.W, p.H, len(p.Packed)/3) {
			return nil, fmt.Errorf("%w: %dx%d raster holds %d packed bytes", ErrWALCorrupt, p.W, p.H, len(p.Packed))
		}
		pix := make([]imagesim.RGB, len(p.Packed)/3)
		for i := range pix {
			pix[i] = imagesim.RGB{R: p.Packed[3*i], G: p.Packed[3*i+1], B: p.Packed[3*i+2]}
		}
		return &imagesim.Image{W: p.W, H: p.H, Pix: pix}, nil
	default:
		if !rasterFits(p.W, p.H, len(p.Pix)) {
			return nil, fmt.Errorf("%w: %dx%d raster holds %d pixels", ErrWALCorrupt, p.W, p.H, len(p.Pix))
		}
		return &imagesim.Image{W: p.W, H: p.H, Pix: p.Pix}, nil
	}
}

// rasterFits reports whether a w×h raster holds exactly n pixels,
// without forming a product that could overflow.
func rasterFits(w, h, n int) bool {
	if w < 0 || h < 0 {
		return false
	}
	if w == 0 || h == 0 {
		return n == 0
	}
	return n%w == 0 && n/w == h
}

// checkRaster refuses a raster the store could not read back: one whose
// size disagrees with its pixel count.
func checkRaster(m *imagesim.Image) error {
	if m == nil {
		return fmt.Errorf("%w: image has no pixels", ErrInvalid)
	}
	if !rasterFits(m.W, m.H, len(m.Pix)) {
		return fmt.Errorf("%w: %dx%d raster holds %d pixels", ErrInvalid, m.W, m.H, len(m.Pix))
	}
	return nil
}
