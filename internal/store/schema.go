// Package store is TVDP's embedded storage engine. It implements the
// paper's Fig. 2 ER schema — Images with FOV and scene-location spatial
// descriptors, visual features, content classifications and annotations,
// manual keywords, users and API keys — over an in-memory table set with
// write-ahead-log durability and segment persistence, plus the secondary
// indexes of §IV-C (R-tree, LSH, inverted, temporal) maintained on write.
package store

import (
	"errors"
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
