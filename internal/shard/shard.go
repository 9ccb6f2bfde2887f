// Package shard partitions the TVDP corpus across N store shards and
// presents them as one store.Backend. Writes route by a stable hash of
// the image ID; reads by ID go straight to the owning shard; searches
// scatter to every shard and gather deterministically (search.go).
//
// Placement contract (stable — it is an on-disk format):
//
//   - Data-plane rows (images, features, annotations, keywords) live on
//     shard mix64(imageID) % N.
//   - Catalog rows (users, API keys, videos, campaigns) live on shard 0.
//   - Classifications replicate to every shard so Annotate can validate
//     labels locally on the owning shard.
//
// ID allocation is global: the coordinator owns a single atomic counter
// (recovered at open as the max of the shards' LastID) and pre-assigns
// IDs before routing, so IDs are unique across shards and the hash
// placement is well defined.
//
// ShardCount == 1 is byte-compatible with a bare *store.Store: the single
// shard opens cfg.Dir itself and writes the same manifest, segment and
// WAL files a non-sharded deployment would.
package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/store"
)

// markerFile records the shard count under the root directory of an N>1
// layout, so a reopen with a different count fails loudly instead of
// silently mis-routing IDs.
const markerFile = "SHARDS"

// ErrShardMismatch reports a reopen whose ShardCount disagrees with the
// on-disk layout. Repartitioning requires an explicit offline migration,
// not a config change.
var ErrShardMismatch = errors.New("shard: shard count does not match on-disk layout")

// Config controls the coordinator. The per-store fields mirror
// store.Config and are applied to every shard identically — in
// particular LSH.Seed, so all shards draw the same hyperplanes and a
// cross-shard candidate union behaves like a single index's.
type Config struct {
	// Dir is the durability root; empty means memory-only shards.
	// With ShardCount <= 1 the store uses Dir directly; with N > 1 each
	// shard owns Dir/shard-XXX.
	Dir string
	// ShardCount is the number of partitions; 0 and 1 both mean one.
	ShardCount      int
	WALSync         store.WALSyncMode
	SyncEveryWrite  bool
	RTree           index.RTreeConfig
	LSH             index.LSHConfig
	HybridKinds     []string
	FlushThreshold  int64
	CompactSegments int
}

// Coordinator implements store.Backend over N shards.
type Coordinator struct {
	cfg    Config
	shards []*store.Store
	nextID atomic.Uint64
}

var _ store.Backend = (*Coordinator)(nil)

// Open creates or recovers a sharded deployment.
func Open(cfg Config) (*Coordinator, error) {
	n := cfg.ShardCount
	if n <= 0 {
		n = 1
	}
	if cfg.Dir != "" {
		if err := checkLayout(cfg.Dir, n); err != nil {
			return nil, err
		}
	}
	c := &Coordinator{cfg: cfg}
	for i := 0; i < n; i++ {
		scfg := store.Config{
			WALSync:         cfg.WALSync,
			SyncEveryWrite:  cfg.SyncEveryWrite,
			RTree:           cfg.RTree,
			LSH:             cfg.LSH,
			HybridKinds:     cfg.HybridKinds,
			FlushThreshold:  cfg.FlushThreshold,
			CompactSegments: cfg.CompactSegments,
		}
		if cfg.Dir != "" {
			scfg.Dir = shardDir(cfg.Dir, n, i)
			if err := os.MkdirAll(scfg.Dir, 0o755); err != nil {
				return nil, errors.Join(fmt.Errorf("shard: %w", err), c.closeOpened())
			}
		}
		s, err := store.Open(scfg)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("shard %d: %w", i, err), c.closeOpened())
		}
		c.shards = append(c.shards, s)
		if last := s.LastID(); last > c.nextID.Load() {
			c.nextID.Store(last)
		}
	}
	return c, nil
}

// shardDir returns shard i's durability directory: the root itself for a
// single shard (byte-compat with a bare store), a numbered subdirectory
// otherwise.
func shardDir(root string, n, i int) string {
	if n <= 1 {
		return root
	}
	return filepath.Join(root, fmt.Sprintf("shard-%03d", i))
}

// checkLayout validates the root directory against the requested count
// and writes the marker for a fresh N>1 layout.
func checkLayout(root string, n int) error {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	raw, err := os.ReadFile(filepath.Join(root, markerFile))
	switch {
	case err == nil:
		have, perr := strconv.Atoi(strings.TrimSpace(string(raw)))
		if perr != nil {
			return fmt.Errorf("shard: corrupt marker %q: %w", strings.TrimSpace(string(raw)), perr)
		}
		if have != n {
			return fmt.Errorf("%w: dir has %d shards, config wants %d", ErrShardMismatch, have, n)
		}
		return nil
	case !os.IsNotExist(err):
		return fmt.Errorf("shard: %w", err)
	}
	// No marker. A single-store layout has its durability files directly
	// in root — legacy snapshot.gob/wal.gob or a segment-engine MANIFEST;
	// opening that with N>1 would strand the existing corpus.
	if n > 1 {
		for _, f := range []string{"snapshot.gob", "wal.gob", "MANIFEST"} {
			if _, serr := os.Stat(filepath.Join(root, f)); serr == nil {
				return fmt.Errorf("%w: dir holds a single-store layout (%s present), config wants %d shards", ErrShardMismatch, f, n)
			}
		}
		if err := os.WriteFile(filepath.Join(root, markerFile), []byte(strconv.Itoa(n)+"\n"), 0o644); err != nil {
			return fmt.Errorf("shard: %w", err)
		}
	}
	return nil
}

// closeOpened rolls back a partially opened coordinator. Close errors
// are returned (joined) so the caller can attach them to the primary
// failure instead of silently dropping them.
func (c *Coordinator) closeOpened() error {
	var err error
	for _, s := range c.shards {
		err = errors.Join(err, s.Close())
	}
	return err
}

// NumShards returns the shard count.
func (c *Coordinator) NumShards() int { return len(c.shards) }

// mix64 is the splitmix64 finalizer: a fixed bijective mixer that spreads
// sequential IDs uniformly across shards. It is part of the on-disk
// placement contract — changing it orphans every routed row.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// shardOf returns the shard owning image id.
func (c *Coordinator) shardOf(id uint64) *store.Store {
	return c.shards[mix64(id)%uint64(len(c.shards))]
}

// alloc hands out the next global ID.
func (c *Coordinator) alloc() uint64 { return c.nextID.Add(1) }

// adopt raises the global allocator to at least id (after delegated
// writes where a shard allocated locally).
func (c *Coordinator) adopt(id uint64) {
	for {
		cur := c.nextID.Load()
		if id <= cur || c.nextID.CompareAndSwap(cur, id) {
			return
		}
	}
}

// catalog returns the shard holding singleton catalog state (users, API
// keys, videos, campaigns).
func (c *Coordinator) catalog() *store.Store { return c.shards[0] }

// ---- Lifecycle ----

// Close closes every shard, returning the first error but attempting all.
func (c *Coordinator) Close() error {
	var errs []error
	for i, s := range c.shards {
		if err := s.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Snapshot forces a memtable flush on every shard.
func (c *Coordinator) Snapshot() error {
	var errs []error
	for i, s := range c.shards {
		if err := s.Snapshot(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Generation composes the per-shard mutation generations by summation.
// Each shard's generation is monotonic, so the sum changes whenever any
// shard applies a data-plane write — which is exactly the coherence
// stamp generation-checked caches need.
func (c *Coordinator) Generation() uint64 {
	var g uint64
	for _, s := range c.shards {
		g += s.Generation()
	}
	return g
}

// ---- Images ----

// AddImage routes the image to its hash shard under a pre-assigned
// global ID.
func (c *Coordinator) AddImage(img store.Image) (uint64, error) {
	if img.ID == 0 {
		img.ID = c.alloc()
	} else {
		c.adopt(img.ID)
	}
	return c.shardOf(img.ID).AddImage(img)
}

// GetImage reads from the owning shard.
func (c *Coordinator) GetImage(id uint64) (store.Image, error) {
	return c.shardOf(id).GetImage(id)
}

// Describe reads from the owning shard.
func (c *Coordinator) Describe(id uint64) (store.Descriptor, error) {
	return c.shardOf(id).Describe(id)
}

// DeleteImage routes to the owning shard.
func (c *Coordinator) DeleteImage(id uint64) error {
	return c.shardOf(id).DeleteImage(id)
}

// NumImages sums the shard counts.
func (c *Coordinator) NumImages() int {
	n := 0
	for _, s := range c.shards {
		n += s.NumImages()
	}
	return n
}

// ImageIDs merges the per-shard sorted ID lists, ascending.
func (c *Coordinator) ImageIDs() []uint64 {
	var out []uint64
	for _, s := range c.shards {
		out = append(out, s.ImageIDs()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ---- Features ----

// PutFeature routes to the image's shard.
func (c *Coordinator) PutFeature(imageID uint64, kind string, vec []float64) error {
	return c.shardOf(imageID).PutFeature(imageID, kind, vec)
}

// GetFeature reads from the image's shard.
func (c *Coordinator) GetFeature(imageID uint64, kind string) ([]float64, error) {
	return c.shardOf(imageID).GetFeature(imageID, kind)
}

// FeatureKinds reads from the image's shard.
func (c *Coordinator) FeatureKinds(imageID uint64) []string {
	return c.shardOf(imageID).FeatureKinds(imageID)
}

// ---- Classifications and annotations ----

// CreateClassification replicates the scheme to every shard under one
// pre-assigned ID, so annotation validation stays shard-local. The
// replication is fail-fast, not transactional: a shard failing mid-loop
// leaves the scheme present on a prefix of shards. That divergence is
// benign for reads (catalog reads go to shard 0, which is written first)
// and self-heals on retry because PutClassification of an identical dup
// name fails only on the shards that already have it.
func (c *Coordinator) CreateClassification(name string, labels []string) (uint64, error) {
	cl := store.Classification{ID: c.alloc(), Name: name, Labels: labels}
	for i, s := range c.shards {
		if _, err := s.PutClassification(cl); err != nil {
			if i > 0 {
				return 0, fmt.Errorf("shard %d (scheme replicated to %d/%d shards): %w", i, i, len(c.shards), err)
			}
			return 0, err
		}
	}
	return cl.ID, nil
}

// GetClassification reads the replicated scheme from the catalog shard.
func (c *Coordinator) GetClassification(id uint64) (store.Classification, error) {
	return c.catalog().GetClassification(id)
}

// ClassificationByName reads from the catalog shard.
func (c *Coordinator) ClassificationByName(name string) (store.Classification, error) {
	return c.catalog().ClassificationByName(name)
}

// Classifications reads from the catalog shard.
func (c *Coordinator) Classifications() []store.Classification {
	return c.catalog().Classifications()
}

// Annotate routes to the annotated image's shard, which holds both the
// image row and (by replication) the classification scheme.
func (c *Coordinator) Annotate(a store.Annotation) error {
	return c.shardOf(a.ImageID).Annotate(a)
}

// AnnotationsFor reads from the image's shard.
func (c *Coordinator) AnnotationsFor(imageID uint64) []store.Annotation {
	return c.shardOf(imageID).AnnotationsFor(imageID)
}

// ImagesByLabel merges the per-shard ID lists, ascending.
func (c *Coordinator) ImagesByLabel(classificationID uint64, label int) []uint64 {
	var out []uint64
	for _, s := range c.shards {
		out = append(out, s.ImagesByLabel(classificationID, label)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ---- Keywords ----

// AddKeywords routes to the image's shard.
func (c *Coordinator) AddKeywords(imageID uint64, words []string) error {
	return c.shardOf(imageID).AddKeywords(imageID, words)
}

// KeywordsFor reads from the image's shard.
func (c *Coordinator) KeywordsFor(imageID uint64) []string {
	return c.shardOf(imageID).KeywordsFor(imageID)
}

// ---- Users and API keys ----

// CreateUser stores the user on the catalog shard under a global ID.
func (c *Coordinator) CreateUser(name, role string) (uint64, error) {
	return c.catalog().PutUser(store.User{ID: c.alloc(), Name: name, Role: role})
}

// IssueAPIKey delegates to the catalog shard.
func (c *Coordinator) IssueAPIKey(userID uint64, now time.Time) (string, error) {
	return c.catalog().IssueAPIKey(userID, now)
}

// Authenticate delegates to the catalog shard.
func (c *Coordinator) Authenticate(key string) (store.User, error) {
	return c.catalog().Authenticate(key)
}

// ---- Videos ----

// AddVideo ingests a video. With one shard it delegates wholesale,
// keeping the single-store one-WAL-batch atomicity. With N>1 the ingest
// decomposes: frames land on their hash shards as individual AddImage /
// AddKeywords writes and the video row lands on the catalog shard last,
// so the operation is NOT atomic across shards — a crash mid-ingest can
// leave frames without a video row. The video row is written last so a
// registered video always has all its frames.
func (c *Coordinator) AddVideo(description, workerID string, frames []store.Frame) (uint64, []uint64, error) {
	if len(c.shards) == 1 {
		id, frameIDs, err := c.shards[0].AddVideo(description, workerID, frames)
		if err == nil {
			c.adopt(c.shards[0].LastID())
		}
		return id, frameIDs, err
	}
	if len(frames) == 0 {
		return 0, nil, fmt.Errorf("%w: video needs frames", store.ErrInvalid)
	}
	for i, f := range frames {
		if f.Pixels == nil {
			return 0, nil, fmt.Errorf("%w: frame %d has no pixels", store.ErrInvalid, i)
		}
		if err := f.FOV.Validate(); err != nil {
			return 0, nil, fmt.Errorf("%w: frame %d: %v", store.ErrInvalid, i, err)
		}
	}
	videoID := c.alloc()
	v := store.Video{
		ID: videoID, Description: description, WorkerID: workerID,
		Start: frames[0].CapturedAt, End: frames[0].CapturedAt,
	}
	frameIDs := make([]uint64, 0, len(frames))
	for i, f := range frames {
		img := store.Image{
			ID:                 c.alloc(),
			Origin:             store.OriginOriginal,
			FOV:                f.FOV,
			Pixels:             f.Pixels,
			TimestampCapturing: f.CapturedAt,
			TimestampUploading: f.CapturedAt,
			WorkerID:           workerID,
			VideoID:            videoID,
			FrameIndex:         i,
		}
		if _, err := c.shardOf(img.ID).AddImage(img); err != nil {
			return 0, nil, fmt.Errorf("frame %d: %w", i, err)
		}
		if len(f.Keywords) > 0 {
			if err := c.shardOf(img.ID).AddKeywords(img.ID, f.Keywords); err != nil {
				return 0, nil, fmt.Errorf("frame %d keywords: %w", i, err)
			}
		}
		frameIDs = append(frameIDs, img.ID)
		if f.CapturedAt.Before(v.Start) {
			v.Start = f.CapturedAt
		}
		if f.CapturedAt.After(v.End) {
			v.End = f.CapturedAt
		}
	}
	v.FrameIDs = frameIDs
	if _, err := c.catalog().PutVideo(v); err != nil {
		return 0, nil, err
	}
	return videoID, frameIDs, nil
}

// GetVideo reads from the catalog shard.
func (c *Coordinator) GetVideo(id uint64) (store.Video, error) {
	return c.catalog().GetVideo(id)
}

// Videos reads from the catalog shard.
func (c *Coordinator) Videos() []store.Video {
	return c.catalog().Videos()
}

// ---- Campaigns ----

// CreateCampaign stores the campaign on the catalog shard under a global
// ID.
func (c *Coordinator) CreateCampaign(rec store.CampaignRec) (uint64, error) {
	if rec.ID == 0 {
		rec.ID = c.alloc()
	} else {
		c.adopt(rec.ID)
	}
	return c.catalog().CreateCampaign(rec)
}

// GetCampaign reads from the catalog shard.
func (c *Coordinator) GetCampaign(id uint64) (store.CampaignRec, error) {
	return c.catalog().GetCampaign(id)
}

// Campaigns reads from the catalog shard.
func (c *Coordinator) Campaigns() []store.CampaignRec {
	return c.catalog().Campaigns()
}

// CampaignImages merges the per-shard ID lists, ascending.
func (c *Coordinator) CampaignImages(campaignID uint64) []uint64 {
	var out []uint64
	for _, s := range c.shards {
		out = append(out, s.CampaignImages(campaignID)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FOVsInRegion concatenates per-shard FOV lists in shard order. The
// consumer (coverage measurement) is order-insensitive.
func (c *Coordinator) FOVsInRegion(r geo.Rect) []geo.FOV {
	var out []geo.FOV
	for _, s := range c.shards {
		out = append(out, s.FOVsInRegion(r)...)
	}
	return out
}
