package store

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/imagesim"
)

// Video support. Per the paper's data model (§IV-B, footnote 1), a video
// is represented by its key frames: each frame is a full Image row with
// its own fine-granularity FOV (the MediaQ property), linked to a Video
// entity. All image-level queries therefore work on frames for free; the
// video layer only adds grouping and ordering.

// Video is one registered video (e.g. a garbage-truck run or drone
// flight).
type Video struct {
	ID uint64
	// Description is free text ("wildfire survey flight 3").
	Description string
	// WorkerID identifies the capturing platform.
	WorkerID string
	// Start/End bound the frames' capture times.
	Start, End time.Time
	// FrameIDs lists the frame images in capture order.
	FrameIDs []uint64
}

// Frame is one key frame to ingest.
type Frame struct {
	Pixels     *imagesim.Image
	FOV        geo.FOV
	CapturedAt time.Time
	Keywords   []string
}

// AddVideo ingests a video as ordered key frames, each stored as a full
// Image row, and returns the video ID plus per-frame image IDs. The whole
// video — frames, keywords, and the video row — commits as one WAL batch
// member (one durability wait regardless of frame count).
func (s *Store) AddVideo(description, workerID string, frames []Frame) (uint64, []uint64, error) {
	if len(frames) == 0 {
		return 0, nil, fmt.Errorf("%w: video needs frames", ErrInvalid)
	}
	// Validate everything before mutating.
	for i, f := range frames {
		if f.Pixels == nil {
			return 0, nil, fmt.Errorf("%w: frame %d has no pixels", ErrInvalid, i)
		}
		if err := f.FOV.Validate(); err != nil {
			return 0, nil, fmt.Errorf("%w: frame %d: %v", ErrInvalid, i, err)
		}
	}
	if s.closed.Load() {
		return 0, nil, ErrClosed
	}
	// Build every row and its WAL frame before taking any lock.
	videoID := s.nextID.Add(1)
	v := &Video{
		ID: videoID, Description: description, WorkerID: workerID,
		Start: frames[0].CapturedAt, End: frames[0].CapturedAt,
	}
	imgs := make([]*Image, 0, len(frames))
	frameIDs := make([]uint64, 0, len(frames))
	var batch []byte
	ops := 0
	appendOp := func(op walOp) error {
		frame, err := s.encode(op)
		if err != nil {
			return err
		}
		batch = append(batch, frame...)
		ops++
		return nil
	}
	for i, f := range frames {
		img := &Image{
			ID:                 s.nextID.Add(1),
			Origin:             OriginOriginal,
			FOV:                f.FOV,
			Scene:              f.FOV.SceneLocation(),
			Pixels:             f.Pixels,
			TimestampCapturing: f.CapturedAt,
			TimestampUploading: f.CapturedAt,
			WorkerID:           workerID,
			VideoID:            videoID,
			FrameIndex:         i,
		}
		if err := appendOp(walOp{Kind: opAddImage, Image: img}); err != nil {
			return 0, nil, err
		}
		if len(f.Keywords) > 0 {
			if err := appendOp(walOp{Kind: opAddKeywords, Keyword: &keywordOp{ImageID: img.ID, Words: f.Keywords}}); err != nil {
				return 0, nil, err
			}
		}
		imgs = append(imgs, img)
		frameIDs = append(frameIDs, img.ID)
		if f.CapturedAt.Before(v.Start) {
			v.Start = f.CapturedAt
		}
		if f.CapturedAt.After(v.End) {
			v.End = f.CapturedAt
		}
	}
	v.FrameIDs = frameIDs
	if err := appendOp(walOp{Kind: opAddVideo, Video: v}); err != nil {
		return 0, nil, err
	}
	// Lock order: catalogMu → imagesMu → kwMu → geoMu.
	s.catalogMu.Lock()
	s.imagesMu.Lock()
	s.kwMu.Lock()
	s.geoMu.Lock()
	unlock := func() {
		s.geoMu.Unlock()
		s.kwMu.Unlock()
		s.imagesMu.Unlock()
		s.catalogMu.Unlock()
	}
	if s.closed.Load() {
		unlock()
		return 0, nil, ErrClosed
	}
	for i, img := range imgs {
		if err := s.applyImage(img); err != nil {
			unlock()
			return 0, nil, err
		}
		if kw := frames[i].Keywords; len(kw) > 0 {
			if err := s.applyKeywords(img.ID, kw); err != nil {
				unlock()
				return 0, nil, err
			}
		}
	}
	if err := s.applyVideo(v); err != nil {
		unlock()
		return 0, nil, err
	}
	var wait <-chan error
	if len(batch) > 0 {
		wait = s.enqueueN(batch, uint64(ops))
	}
	unlock()
	if err := s.awaitCommit(wait); err != nil {
		return 0, nil, err
	}
	return videoID, frameIDs, nil
}

// PutVideo stores a fully-formed video row (metadata and frame ID list;
// the frames themselves are separate Image rows). A zero v.ID is
// allocated here; a preset ID is honored. The shard coordinator uses this
// for the decomposed N>1 video-ingest path, where frames land on their
// hash shards and the video row lands on the catalog shard.
func (s *Store) PutVideo(v Video) (uint64, error) {
	if len(v.FrameIDs) == 0 {
		return 0, fmt.Errorf("%w: video needs frames", ErrInvalid)
	}
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if v.ID == 0 {
		v.ID = s.nextID.Add(1)
	}
	v.FrameIDs = append([]uint64(nil), v.FrameIDs...)
	frame, err := s.encode(walOp{Kind: opAddVideo, Video: &v})
	if err != nil {
		return 0, err
	}
	s.catalogMu.Lock()
	if s.closed.Load() {
		s.catalogMu.Unlock()
		return 0, ErrClosed
	}
	if err := s.applyVideo(&v); err != nil {
		s.catalogMu.Unlock()
		return 0, err
	}
	wait := s.enqueue(frame)
	s.catalogMu.Unlock()
	if err := s.awaitCommit(wait); err != nil {
		return 0, err
	}
	return v.ID, nil
}

// applyVideo registers a video row. Callers hold catalogMu.
//
//tvdp:requires catalogMu
func (s *Store) applyVideo(v *Video) error {
	if _, dup := s.videos[v.ID]; dup {
		return fmt.Errorf("%w: video %d", ErrDuplicate, v.ID)
	}
	s.mutGen.Add(1)
	s.bumpNextID(v.ID)
	s.videos[v.ID] = v
	if s.mem != nil {
		s.mem.addVideo(v)
	}
	return nil
}

// GetVideo returns a video's metadata and frame list.
func (s *Store) GetVideo(id uint64) (Video, error) {
	s.catalogMu.RLock()
	defer s.catalogMu.RUnlock()
	v, ok := s.videos[id]
	if !ok {
		return Video{}, fmt.Errorf("%w: video %d", ErrNotFound, id)
	}
	out := *v
	out.FrameIDs = append([]uint64(nil), v.FrameIDs...)
	return out, nil
}

// Videos lists all videos sorted by ID.
func (s *Store) Videos() []Video {
	s.catalogMu.RLock()
	defer s.catalogMu.RUnlock()
	out := make([]Video, 0, len(s.videos))
	for _, v := range s.videos {
		cp := *v
		cp.FrameIDs = append([]uint64(nil), v.FrameIDs...)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AddAugmented stores an augmented derivative of an existing image,
// inheriting its spatial and temporal descriptors (paper §IV-B).
func (s *Store) AddAugmented(parentID uint64, pixels *imagesim.Image) (uint64, error) {
	if pixels == nil {
		return 0, fmt.Errorf("%w: augmented image has no pixels", ErrInvalid)
	}
	if s.closed.Load() {
		return 0, ErrClosed
	}
	// Snapshot the parent's descriptors under a read lock, build and
	// encode outside any lock, then re-check the parent under the write
	// lock (it may have been deleted in between).
	s.imagesMu.RLock()
	parent, ok := s.images[parentID]
	if !ok {
		s.imagesMu.RUnlock()
		return 0, fmt.Errorf("%w: parent image %d", ErrNotFound, parentID)
	}
	img := &Image{
		Origin:             OriginAugmented,
		ParentID:           parentID,
		FOV:                parent.FOV,
		Scene:              parent.Scene,
		TimestampCapturing: parent.TimestampCapturing,
		TimestampUploading: parent.TimestampUploading,
		WorkerID:           parent.WorkerID,
	}
	s.imagesMu.RUnlock()
	img.ID = s.nextID.Add(1)
	img.Pixels = pixels
	frame, err := s.encode(walOp{Kind: opAddImage, Image: img})
	if err != nil {
		return 0, err
	}
	s.imagesMu.Lock()
	s.geoMu.Lock()
	unlock := func() { s.geoMu.Unlock(); s.imagesMu.Unlock() }
	if s.closed.Load() {
		unlock()
		return 0, ErrClosed
	}
	if _, ok := s.images[parentID]; !ok {
		unlock()
		return 0, fmt.Errorf("%w: parent image %d", ErrNotFound, parentID)
	}
	if err := s.applyImage(img); err != nil {
		unlock()
		return 0, err
	}
	wait := s.enqueue(frame)
	unlock()
	if err := s.awaitCommit(wait); err != nil {
		return 0, err
	}
	return img.ID, nil
}

// AugmentedOf returns the IDs of augmented derivatives of an image,
// ascending.
func (s *Store) AugmentedOf(parentID uint64) []uint64 {
	s.imagesMu.RLock()
	defer s.imagesMu.RUnlock()
	var out []uint64
	for id, img := range s.images {
		if img.Origin == OriginAugmented && img.ParentID == parentID {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
