package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// The legacy-migration tests run against testdata/legacy, a directory
// written by the full-snapshot engine before its removal (SyncEveryWrite
// on, so wal.gob holds one frame per op):
//
//	snapshot.gob (generation 1): classification "scene" (ID 1); images
//	  2, 3 and 4, image 2 carrying a "hist" feature, a "clean"
//	  annotation and the keyword "legacy"; user "w-1" (5); video
//	  "survey" (6) with frame image 7; campaign "dtla" (8).
//	wal.gob (generation 1), in order: add image 9, put its "hist"
//	  feature, annotate it "littered", add the keywords "pole" and
//	  "sidewalk", create user "w-2" (10), delete image 3.
const (
	legacyDir       = "testdata/legacy"
	legacyProbeImg  = 9
	legacyProbeUser = 10
)

// legacyCheckpoints[n] is the state after the snapshot plus the first n
// wal.gob frames.
var legacyCheckpoints = []walState{
	{images: 4, classes: 1},
	{images: 5, classes: 1},
	{images: 5, classes: 1, features: 1},
	{images: 5, classes: 1, features: 1, anns: 1},
	{images: 5, classes: 1, features: 1, anns: 1, keywords: 2},
	{images: 5, classes: 1, features: 1, anns: 1, keywords: 2, hasUser: true},
	{images: 4, classes: 1, features: 1, anns: 1, keywords: 2, hasUser: true},
}

func readLegacy(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(legacyDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// writeLegacy lays a legacy directory out in dir: snap as snapshot.gob
// and wal as wal.gob (either omitted when nil).
func writeLegacy(dir string, snap, wal []byte) error {
	for name, data := range map[string][]byte{snapshotFile: snap, walFile: wal} {
		if data == nil {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// legacyStore writes a legacy directory (see writeLegacy) into a fresh
// temp dir and returns the dir.
func legacyStore(t *testing.T, snap, wal []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := writeLegacy(dir, snap, wal); err != nil {
		t.Fatal(err)
	}
	return dir
}

// legacyFrameEnds returns the byte offset at which each frame of a v2
// wal.gob ends, read straight off the length prefixes.
func legacyFrameEnds(t *testing.T, wal []byte) []int {
	t.Helper()
	var ends []int
	for off := walHeaderSize; off < len(wal); {
		off += walFrameHeaderSize + int(binary.LittleEndian.Uint32(wal[off:]))
		ends = append(ends, off)
	}
	if len(ends) != len(legacyCheckpoints)-1 || ends[len(ends)-1] != len(wal) {
		t.Fatalf("fixture wal.gob frames end at %v, want %d frames ending at %d", ends, len(legacyCheckpoints)-1, len(wal))
	}
	return ends
}

// requireMigrated checks dir holds the segment layout and no legacy file.
func requireMigrated(t testing.TB, dir string) {
	t.Helper()
	for _, name := range []string{snapshotFile, walFile} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("legacy %s survives migration (stat: %v)", name, err)
		}
	}
	for _, name := range []string{manifestFile, segName(1)} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("migrated layout incomplete: %v", err)
		}
	}
}

// requireLegacyBytes checks dir still holds exactly snap and wal.
func requireLegacyBytes(t *testing.T, dir string, snap, wal []byte) {
	t.Helper()
	for name, want := range map[string][]byte{snapshotFile: snap, walFile: wal} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("legacy %s gone after failed migration: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("legacy %s rewritten by failed migration (%d bytes, was %d)", name, len(got), len(want))
		}
	}
	if _, err := os.Stat(filepath.Join(dir, manifestFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed migration installed a manifest (stat: %v)", err)
	}
}

// TestLegacySnapshotMigration: the legacy directory opens, comes back
// intact — every row kind of the snapshot plus the whole wal.gob tail —
// and is rewritten in place as segment 1 + MANIFEST with the legacy
// files gone. The migrated store is an ordinary segment store: writes
// and reopens work.
func TestLegacySnapshotMigration(t *testing.T) {
	dir := legacyStore(t, readLegacy(t, snapshotFile), readLegacy(t, walFile))
	m := diskStore(t, dir)
	want := legacyCheckpoints[len(legacyCheckpoints)-1]
	if got := fingerprint(m, legacyProbeImg, legacyProbeUser); got != want {
		t.Fatalf("migrated %+v, want %+v", got, want)
	}
	if kw := m.KeywordsFor(2); len(kw) != 1 || kw[0] != "legacy" {
		t.Fatalf("snapshot keywords lost in migration: %v", kw)
	}
	if _, err := m.GetImage(3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("image deleted in wal.gob came back: %v", err)
	}
	if _, err := m.GetVideo(6); err != nil {
		t.Fatalf("snapshot video lost: %v", err)
	}
	if _, err := m.GetCampaign(8); err != nil {
		t.Fatalf("snapshot campaign lost: %v", err)
	}
	if m.LastID() != legacyProbeUser {
		t.Fatalf("ID allocator at %d after migration, want %d", m.LastID(), legacyProbeUser)
	}
	requireMigrated(t, dir)
	id, err := m.AddImage(tinyImage(t, 200))
	if err != nil {
		t.Fatal(err)
	}
	if id <= legacyProbeUser {
		t.Fatalf("migrated store reissued ID %d", id)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	r := diskStore(t, dir)
	defer r.Close()
	if got := r.NumImages(); got != want.images+1 {
		t.Fatalf("post-migration reopen: %d images, want %d", got, want.images+1)
	}
}

// TestSnapshotPlusWALOffsetSweep cuts the fixture's wal.gob at every
// byte offset — every crash point of the legacy engine's appends — and
// requires each cut to migrate, recovering exactly the snapshot plus the
// frames that made it to disk whole.
func TestSnapshotPlusWALOffsetSweep(t *testing.T) {
	snap, wal := readLegacy(t, snapshotFile), readLegacy(t, walFile)
	ends := legacyFrameEnds(t, wal)
	// Each migration fsyncs a segment, a manifest and a fresh log; shard
	// the sweep across workers with private directories.
	workers := 32 * runtime.GOMAXPROCS(0) // I/O-bound: overlap the per-offset fsyncs
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		base := t.TempDir()
		wg.Add(1)
		go func(w int, base string) {
			defer wg.Done()
			for k := w; k <= len(wal); k += workers {
				dir := filepath.Join(base, fmt.Sprint(k))
				if err := os.Mkdir(dir, 0o755); err != nil {
					t.Error(err)
					return
				}
				if err := writeLegacy(dir, snap, wal[:k]); err != nil {
					t.Error(err)
					return
				}
				cfg := DefaultConfig()
				cfg.Dir = dir
				r, err := Open(cfg)
				if err != nil {
					t.Errorf("offset %d: Open failed: %v", k, err)
					return
				}
				n := 0
				for n < len(ends) && ends[n] <= k {
					n++
				}
				if got, want := fingerprint(r, legacyProbeImg, legacyProbeUser), legacyCheckpoints[n]; got != want {
					t.Errorf("offset %d: recovered %+v, want %+v", k, got, want)
				}
				requireMigrated(t, dir)
				if err := r.Close(); err != nil {
					t.Errorf("offset %d: Close: %v", k, err)
				}
				if err := os.RemoveAll(dir); err != nil {
					t.Error(err)
					return
				}
			}
		}(w, base)
	}
	wg.Wait()
}

// withWALGen returns a copy of a v2 wal with its header rewritten to
// generation gen.
func withWALGen(wal []byte, gen uint64) []byte {
	out := append([]byte(nil), wal...)
	copy(out, walHeader(gen))
	return out
}

// TestSnapshotCrashDiscardsStaleWAL: the legacy engine installed a new
// snapshot before resetting the log, so a crash between the two left a
// wal.gob one generation behind the snapshot, holding ops the snapshot
// already contains. Migration must skip it — replaying it would
// double-apply.
func TestSnapshotCrashDiscardsStaleWAL(t *testing.T) {
	dir := legacyStore(t, readLegacy(t, snapshotFile), withWALGen(readLegacy(t, walFile), 0))
	r := diskStore(t, dir)
	defer r.Close()
	if got := fingerprint(r, legacyProbeImg, legacyProbeUser); got != legacyCheckpoints[0] {
		t.Fatalf("recovered %+v, want the snapshot alone %+v", got, legacyCheckpoints[0])
	}
	if kw := r.KeywordsFor(2); len(kw) != 1 || kw[0] != "legacy" {
		t.Fatalf("keywords for 2 = %v, want exactly [legacy]", kw)
	}
	requireMigrated(t, dir)
}

// TestLegacyWALAheadOfSnapshot: a wal.gob from a newer generation than
// its snapshot means the snapshot it builds on is missing. Migration
// must refuse with ErrWALCorrupt, every time, and touch nothing.
func TestLegacyWALAheadOfSnapshot(t *testing.T) {
	snap, wal := readLegacy(t, snapshotFile), withWALGen(readLegacy(t, walFile), 2)
	dir := legacyStore(t, snap, wal)
	cfg := DefaultConfig()
	cfg.Dir = dir
	for attempt := 0; attempt < 2; attempt++ {
		if _, err := Open(cfg); !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("attempt %d: Open = %v, want ErrWALCorrupt", attempt, err)
		}
		requireLegacyBytes(t, dir, snap, wal)
	}
}

// TestCorruptSnapshotSurfacesError ensures a mangled snapshot.gob fails
// the open instead of silently migrating an empty store.
func TestCorruptSnapshotSurfacesError(t *testing.T) {
	snap, wal := []byte("garbage"), readLegacy(t, walFile)
	dir := legacyStore(t, snap, wal)
	cfg := DefaultConfig()
	cfg.Dir = dir
	if _, err := Open(cfg); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	requireLegacyBytes(t, dir, snap, wal)
}

// TestFailedMigrationLeavesLegacyBytes: a migration that dies after
// replay — here the segment write fails — must leave both legacy files
// byte-identical, even a wal.gob with a torn tail, so the next open
// simply reruns the migration from the same input.
func TestFailedMigrationLeavesLegacyBytes(t *testing.T) {
	snap, wal := readLegacy(t, snapshotFile), readLegacy(t, walFile)
	torn := wal[:len(wal)-10] // cuts into the final (delete) frame
	dir := legacyStore(t, snap, torn)
	restore := installFaultMatch(faultCut, 0, "seg-")
	cfg := DefaultConfig()
	cfg.Dir = dir
	_, err := Open(cfg)
	restore()
	if !errors.Is(err, errFaultInjected) {
		t.Fatalf("Open = %v, want the injected segment-write fault", err)
	}
	requireLegacyBytes(t, dir, snap, torn)

	r := diskStore(t, dir)
	defer r.Close()
	if got, want := fingerprint(r, legacyProbeImg, legacyProbeUser), legacyCheckpoints[len(legacyCheckpoints)-2]; got != want {
		t.Fatalf("rerun migration recovered %+v, want %+v", got, want)
	}
	requireMigrated(t, dir)
}

// TestLegacyWALMigration forges a v1 log (one continuous gob stream, the
// way the oldest engine wrote it, with no snapshot beside it), opens the
// store, and checks the data is migrated to the segment layout — after
// which append and reopen behave like any other segment store.
func TestLegacyWALMigration(t *testing.T) {
	forgeLegacy := func(t *testing.T, truncateBy int) (dir string, wal []byte) {
		t.Helper()
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		for i := 1; i <= 3; i++ {
			img := tinyImage(t, float64(i*20))
			img.ID = uint64(i)
			img.Scene = img.FOV.SceneLocation()
			if err := enc.Encode(walOp{Kind: opAddImage, Image: &img}); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Encode(walOp{Kind: opAddKeywords, Keyword: &keywordOp{ImageID: 1, Words: []string{"legacy"}}}); err != nil {
			t.Fatal(err)
		}
		wal = buf.Bytes()[:buf.Len()-truncateBy]
		return legacyStore(t, nil, wal), wal
	}

	t.Run("clean", func(t *testing.T) {
		dir, _ := forgeLegacy(t, 0)
		s := diskStore(t, dir)
		if got := s.NumImages(); got != 3 {
			t.Fatalf("migrated %d images, want 3", got)
		}
		if kw := s.KeywordsFor(1); len(kw) != 1 || kw[0] != "legacy" {
			t.Fatalf("keywords = %v, want [legacy]", kw)
		}
		if _, err := os.Stat(filepath.Join(dir, walFile)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("v1 wal.gob survives migration (stat: %v)", err)
		}
		// And append-after-reopen — the operation that killed v1 — works.
		if _, err := s.AddImage(tinyImage(t, 300)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r := diskStore(t, dir)
		defer r.Close()
		if got := r.NumImages(); got != 4 {
			t.Fatalf("post-migration reopen: %d images, want 4", got)
		}
	})

	t.Run("torn-tail", func(t *testing.T) {
		dir, wal := forgeLegacy(t, 10) // cuts into the final (keywords) record
		// A failed first attempt must not have rewritten the v1 stream.
		restore := installFaultMatch(faultCut, 0, manifestFile)
		cfg := DefaultConfig()
		cfg.Dir = dir
		_, err := Open(cfg)
		restore()
		if !errors.Is(err, errFaultInjected) {
			t.Fatalf("Open = %v, want the injected manifest-write fault", err)
		}
		if got, rerr := os.ReadFile(filepath.Join(dir, walFile)); rerr != nil || !bytes.Equal(got, wal) {
			t.Fatalf("failed migration rewrote the v1 wal.gob (err %v)", rerr)
		}
		s := diskStore(t, dir)
		defer s.Close()
		if got := s.NumImages(); got != 3 {
			t.Fatalf("migrated %d images from torn legacy log, want 3", got)
		}
		if kw := s.KeywordsFor(1); len(kw) != 0 {
			t.Fatalf("torn final record resurrected: keywords = %v", kw)
		}
	})
}
