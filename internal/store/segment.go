package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
)

// Segment file format (segment engine). A segment is one frozen memtable
// window, serialised sorted and immutable:
//
//	magic (8 bytes) | payload length (4 LE) | CRC32C of payload (4 LE) | payload
//
// The payload is a single gob-encoded segmentData. The whole file is
// written to a temp name through the walBackend hook (so the crash
// sweeps can tear it at any byte), fsynced, renamed into place, and the
// directory fsynced — a crash mid-write leaves only a *.tmp that the
// next open discards, and a bit flip anywhere in the payload fails the
// checksum instead of loading silently wrong rows. The manifest
// (manifest.go) uses the same framing with its own magic.

const (
	segBlobHeaderSize = 16
	// maxSegBlob bounds a claimed payload size; anything larger is
	// corruption, not an allocation request.
	maxSegBlob = 1 << 31
	// segSyncChunk bounds the dirty bytes behind any single fsync while a
	// blob is written: flush/compaction outputs run to many megabytes, and
	// one fsync over all of them forces a journal transaction big enough
	// to stall every concurrent WAL append behind it (the stall the
	// persistence figure measures). Syncing every chunk keeps each device
	// burst small so foreground commits interleave.
	segSyncChunk = 1 << 20
)

var segMagic = [8]byte{0xB7, 'T', 'V', 'S', 'E', 'G', 'v', '1'}

// segName returns segment file n's name. Numbers come from the
// manifest's NextSeg counter and are never reused, so a crashed flush's
// orphan output can never collide with a live segment.
func segName(n uint64) string { return fmt.Sprintf("seg-%06d.seg", n) }

// isSegName reports whether base is a segment filename (orphan sweep).
func isSegName(base string) bool {
	return strings.HasPrefix(base, "seg-") && strings.HasSuffix(base, ".seg")
}

// segmentData is the gob-serialised content of one segment: the sorted
// net effect of a memtable window. NextID is the ID-allocator high-water
// mark at freeze, which keeps IDs from being reused even after
// compaction drops the highest row. Tombstones list images deleted in
// the window whose older copies may live in earlier segments; they apply
// before the segment's own rows.
type segmentData struct {
	NextID          uint64
	Tombstones      []uint64
	Images          []*imageRecord
	Features        []*Feature
	Classifications []*Classification
	Annotations     []*Annotation
	Keywords        []keywordOp
	Users           []*User
	APIKeys         []*APIKey
	Videos          []*Video
	Campaigns       []*CampaignRec
}

// rows counts the data rows in the segment (manifest observability).
func (seg *segmentData) rows() int {
	return len(seg.Images) + len(seg.Features) + len(seg.Classifications) +
		len(seg.Annotations) + len(seg.Keywords) + len(seg.Users) +
		len(seg.APIKeys) + len(seg.Videos) + len(seg.Campaigns) + len(seg.Tombstones)
}

// writeBlob atomically installs a checksummed single-payload file
// (segment or manifest): temp file through the walBackend hook, one
// header write, one payload write, fsync, rename, directory fsync.
func writeBlob(dir, name string, magic [8]byte, payload []byte) (int64, error) {
	if len(payload) > maxSegBlob {
		return 0, fmt.Errorf("store: %s payload is %d bytes, over the %d-byte limit", name, len(payload), maxSegBlob)
	}
	path := filepath.Join(dir, name)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("store: creating %s: %w", name, err)
	}
	b := newWALBackend(f)
	fail := func(err error) (int64, error) {
		err = errors.Join(err, b.Close())
		os.Remove(tmp)
		return 0, fmt.Errorf("store: writing %s: %w", name, err)
	}
	hdr := make([]byte, segBlobHeaderSize)
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:], crc32.Checksum(payload, walCRCTable))
	if _, err := b.Write(hdr); err != nil {
		return fail(err)
	}
	for off := 0; off < len(payload); off += segSyncChunk {
		end := off + segSyncChunk
		if end > len(payload) {
			end = len(payload)
		}
		if _, err := b.Write(payload[off:end]); err != nil {
			return fail(err)
		}
		if end < len(payload) {
			if err := b.Sync(); err != nil {
				return fail(err)
			}
		}
	}
	if err := b.Sync(); err != nil {
		return fail(err)
	}
	if err := b.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("store: installing %s: %w", name, err)
	}
	if err := fsyncDir(dir); err != nil {
		return 0, err
	}
	return int64(segBlobHeaderSize + len(payload)), nil
}

// readBlob reads and verifies a checksummed single-payload file. Any
// mismatch — magic, length, checksum — is ErrWALCorrupt: an installed
// blob was fully durable before its rename, so damage is media
// corruption, never a tolerable torn tail.
func readBlob(dir, name string, magic [8]byte) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", name, err)
	}
	if len(data) < segBlobHeaderSize || !bytes.Equal(data[:8], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic in %s", ErrWALCorrupt, name)
	}
	length := int(binary.LittleEndian.Uint32(data[8:]))
	sum := binary.LittleEndian.Uint32(data[12:])
	if length < 0 || length > maxSegBlob || segBlobHeaderSize+length != len(data) {
		return nil, fmt.Errorf("%w: %s claims %d payload bytes, file has %d", ErrWALCorrupt, name, length, len(data)-segBlobHeaderSize)
	}
	payload := data[segBlobHeaderSize:]
	if crc32.Checksum(payload, walCRCTable) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch in %s", ErrWALCorrupt, name)
	}
	return payload, nil
}

// writeSegment serialises and atomically installs one segment, returning
// its on-disk size.
func writeSegment(dir, name string, seg *segmentData) (int64, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(seg); err != nil {
		return 0, fmt.Errorf("store: encoding segment %s: %w", name, err)
	}
	return writeBlob(dir, name, segMagic, buf.Bytes())
}

// readSegment loads and verifies one segment.
func readSegment(dir, name string) (*segmentData, error) {
	payload, err := readBlob(dir, name, segMagic)
	if err != nil {
		return nil, err
	}
	seg, err := decodeSegment(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: undecodable segment %s: %v", ErrWALCorrupt, name, err)
	}
	return seg, nil
}

// decodeSegment decodes a verified segment payload. Image records stay
// in their persisted shape until loadSegment or a compaction's absorb
// turns each into a row.
func decodeSegment(payload []byte) (*segmentData, error) {
	var seg segmentData
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&seg); err != nil {
		return nil, err
	}
	return &seg, nil
}
