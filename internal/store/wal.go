package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// WAL v2 record format, shared by the segment engine's per-generation
// logs (wal-%06d.log, engine.go) and the legacy snapshot layout's single
// wal.gob. The file starts with a 16-byte header:
//
//	magic (8 bytes) | generation (8 bytes, little-endian)
//
// followed by self-delimiting frames:
//
//	payload length (4 bytes LE) | CRC32C of payload (4 bytes LE) | payload
//
// Each payload is one walRecord encoded by a *fresh* gob encoder, so every
// frame is a complete gob stream on its own. That independence is what
// makes append-after-reopen safe: the v1 format shared one encoder per
// file session, so each reopen restarted gob's type-descriptor numbering
// mid-stream and the next replay died with "duplicate type received".
//
// Recovery walks frames until the first one that is incomplete or fails
// its checksum at end-of-file — a torn write — and repairs the log by
// truncating it there. A checksum failure or impossible length with
// further data behind it is mid-log corruption and surfaces as
// ErrWALCorrupt instead of being silently dropped.
//
// Legacy layout: older releases kept a full state image in snapshot.gob
// (tagged with a generation number) plus a wal.gob of the ops applied
// since the snapshot of the same generation; wal.gob is either a v2 log
// or a v1 bare gob stream (recognisable because a gob stream can never
// begin with the magic's first byte). That layout is only ever read:
// migrateLegacy (engine.go) loads it through readSnapshot and
// replayLegacyWAL and rewrites it as the segment layout.

const (
	snapshotFile = "snapshot.gob"
	walFile      = "wal.gob"

	walHeaderSize      = 16
	walFrameHeaderSize = 8
	// maxWALRecord bounds a frame's claimed payload size; anything larger
	// is treated as corruption rather than attempted as an allocation.
	maxWALRecord = 1 << 28
)

// walMagic identifies a v2 log. The first byte (0xB6) can never open a
// legacy v1 file: gob streams start with a uvarint byte count whose first
// byte is either <= 0x7F or >= 0xF8, so 0xB6 is unreachable.
var walMagic = [8]byte{0xB6, 'T', 'V', 'W', 'A', 'L', 'v', '2'}

var walCRCTable = crc32.MakeTable(crc32.Castagnoli)

// walOp is one durable mutation. Exactly one payload field is set,
// selected by Kind. A frame carries it as a walRecord.
type walOp struct {
	Kind           string
	Image          *Image
	Feature        *Feature
	Classification *Classification
	Annotation     *Annotation
	Keyword        *keywordOp
	User           *User
	APIKey         *APIKey
	Video          *Video
	Campaign       *CampaignRec
	DeleteImageID  uint64
}

// walRecord is a walOp as a frame carries it: the same fields, with the
// image in its persisted shape (imageRecord, pixels packed). Frames
// written before the packed encoding hold gob-encoded walOp values;
// gob matches them to walRecord field by field.
type walRecord struct {
	Kind           string
	Image          *imageRecord
	Feature        *Feature
	Classification *Classification
	Annotation     *Annotation
	Keyword        *keywordOp
	User           *User
	APIKey         *APIKey
	Video          *Video
	Campaign       *CampaignRec
	DeleteImageID  uint64
}

func (op *walOp) record() *walRecord {
	r := &walRecord{
		Kind: op.Kind, Feature: op.Feature, Classification: op.Classification,
		Annotation: op.Annotation, Keyword: op.Keyword, User: op.User,
		APIKey: op.APIKey, Video: op.Video, Campaign: op.Campaign,
		DeleteImageID: op.DeleteImageID,
	}
	if op.Image != nil {
		r.Image = newImageRecord(op.Image)
	}
	return r
}

// op returns the mutation a decoded frame describes. A frame whose kind
// lacks its payload, or whose raster disagrees with its size, is
// corruption: replay would otherwise dereference what is not there.
func (r *walRecord) op() (walOp, error) {
	op := walOp{
		Kind: r.Kind, Feature: r.Feature, Classification: r.Classification,
		Annotation: r.Annotation, Keyword: r.Keyword, User: r.User,
		APIKey: r.APIKey, Video: r.Video, Campaign: r.Campaign,
		DeleteImageID: r.DeleteImageID,
	}
	if r.Image != nil {
		img, err := r.Image.image()
		if err != nil {
			return walOp{}, err
		}
		op.Image = img
	}
	var missing bool
	switch op.Kind {
	case opAddImage:
		missing = op.Image == nil || op.Image.Pixels == nil
	case opAddFeature:
		missing = op.Feature == nil
	case opAddClass:
		missing = op.Classification == nil
	case opAddAnnotation:
		missing = op.Annotation == nil
	case opAddKeywords:
		missing = op.Keyword == nil
	case opAddUser:
		missing = op.User == nil
	case opAddAPIKey:
		missing = op.APIKey == nil
	case opAddVideo:
		missing = op.Video == nil
	case opAddCampaign:
		missing = op.Campaign == nil
	}
	if missing {
		return walOp{}, fmt.Errorf("%w: %s op without its payload", ErrWALCorrupt, op.Kind)
	}
	return op, nil
}

// decodeWALPayload decodes one frame payload (a standalone gob stream).
func decodeWALPayload(payload []byte) (walOp, error) {
	var r walRecord
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&r); err != nil {
		return walOp{}, err
	}
	return r.op()
}

type keywordOp struct {
	ImageID uint64
	Words   []string
}

// WAL op kinds.
const (
	opAddImage      = "add_image"
	opAddFeature    = "add_feature"
	opAddClass      = "add_classification"
	opAddAnnotation = "add_annotation"
	opAddKeywords   = "add_keywords"
	opAddUser       = "add_user"
	opAddAPIKey     = "add_api_key"
	opAddVideo      = "add_video"
	opAddCampaign   = "add_campaign"
	opDeleteImage   = "delete_image"
)

// walBackend is the file surface the writer appends through. It exists so
// fault-injection tests can interpose a failing or corrupting wrapper
// (see faultfs.go) between the writer and the real file.
type walBackend interface {
	io.Writer
	Sync() error
	Close() error
}

// newWALBackend wraps every freshly opened WAL file; tests swap it to
// inject faults at chosen byte offsets.
var newWALBackend = func(f *os.File) walBackend { return f }

// walWriter appends CRC-framed ops to the log file.
type walWriter struct {
	b walBackend
	// sync is the durability mode; SyncImmediate forces an fsync per
	// append (slower, stronger durability).
	sync WALSyncMode
}

// walName returns the per-generation log filename (wal-%06d.log).
func walName(gen uint64) string { return fmt.Sprintf("wal-%06d.log", gen) }

// parseWALName extracts the generation from a per-generation log name
// ("wal-<gen>.log"). walName's %06d is only a *minimum* print width —
// generations past 999999 grow to seven digits and beyond — so the
// parse takes every digit rather than a fixed width (a width-limited
// Sscanf would read only the first six and break the chain check after
// ~1M flushes).
func parseWALName(base string) (uint64, bool) {
	digits, ok := strings.CutPrefix(base, "wal-")
	if !ok {
		return 0, false
	}
	digits, ok = strings.CutSuffix(digits, ".log")
	if !ok || digits == "" {
		return 0, false
	}
	gen, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

func walHeader(gen uint64) []byte {
	h := make([]byte, walHeaderSize)
	copy(h, walMagic[:])
	binary.LittleEndian.PutUint64(h[8:], gen)
	return h
}

// walPayloadEncoder amortises gob type descriptors across frames. Every
// frame payload must stay a self-contained gob stream (recovery decodes
// each frame with a fresh decoder), but a fresh encoder per frame spends
// most of its time re-serialising the walRecord type graph. gob emits the
// full static type graph once, up front, on an encoder's first Encode of
// a type; this cache captures those descriptor bytes and prepends them to
// the bare value message a long-lived encoder produces per op — the same
// wire bytes a fresh encoder would emit, at a fraction of the CPU.
type walPayloadEncoder struct {
	mu     sync.Mutex
	enc    *gob.Encoder
	buf    bytes.Buffer
	prefix []byte
}

var walPayloads walPayloadEncoder

func (e *walPayloadEncoder) encode(op *walRecord) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.enc == nil {
		// Prime: the first Encode yields descriptors + value; encoding the
		// same op again yields the value message alone, so the descriptor
		// prefix falls out by length subtraction.
		e.buf.Reset()
		enc := gob.NewEncoder(&e.buf)
		if err := enc.Encode(op); err != nil {
			return nil, err
		}
		full := append([]byte(nil), e.buf.Bytes()...)
		e.buf.Reset()
		if err := enc.Encode(op); err != nil {
			return nil, err
		}
		e.prefix = full[:len(full)-e.buf.Len()]
		e.enc = enc
		return full, nil
	}
	e.buf.Reset()
	if err := e.enc.Encode(op); err != nil {
		// The shared encoder's sent-type state is unknown after a failed
		// encode; drop it so the next frame re-primes from scratch.
		e.enc = nil
		e.prefix = nil
		return nil, err
	}
	out := make([]byte, 0, len(e.prefix)+e.buf.Len())
	out = append(out, e.prefix...)
	out = append(out, e.buf.Bytes()...)
	return out, nil
}

// encodeFrame serialises one op as a self-contained frame: length, CRC32C,
// then a standalone gob payload of its walRecord (type descriptors via
// walPayloads).
func encodeFrame(op walOp) ([]byte, error) {
	payload, err := walPayloads.encode(op.record())
	if err != nil {
		return nil, err
	}
	if len(payload) > maxWALRecord {
		// Refuse to write what recovery would refuse to read.
		return nil, fmt.Errorf("op payload is %d bytes, over the %d-byte frame limit", len(payload), maxWALRecord)
	}
	frame := make([]byte, walFrameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, walCRCTable))
	copy(frame[walFrameHeaderSize:], payload)
	return frame, nil
}

// append writes one op as a single frame (one Write call, so a crash
// mid-append leaves at most one torn frame at the tail).
func (w *walWriter) append(op walOp) error {
	if w.b == nil {
		return fmt.Errorf("store: appending WAL op %s: log closed", op.Kind)
	}
	frame, err := encodeFrame(op)
	if err != nil {
		return fmt.Errorf("store: encoding WAL op %s: %w", op.Kind, err)
	}
	if _, err := w.b.Write(frame); err != nil {
		return fmt.Errorf("store: appending WAL op %s: %w", op.Kind, err)
	}
	if w.sync == SyncImmediate {
		if err := w.b.Sync(); err != nil {
			return fmt.Errorf("store: syncing WAL: %w", err)
		}
	}
	return nil
}

func (w *walWriter) close() error {
	if w == nil || w.b == nil {
		return nil
	}
	err := w.b.Sync()
	if cerr := w.b.Close(); err == nil {
		err = cerr
	}
	w.b = nil
	return err
}

// createWAL atomically installs an empty generation-gen log
// (walName(gen)) and returns a writer positioned for append. The
// temp-file + rename + directory-fsync sequence guarantees a crash leaves
// either no log or the complete header, never a half-written one.
func createWAL(dir string, gen uint64, sync WALSyncMode) (*walWriter, error) {
	path := filepath.Join(dir, walName(gen))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: creating WAL: %w", err)
	}
	b := newWALBackend(f)
	fail := func(err error) (*walWriter, error) {
		// A failed close can mean buffered bytes never hit the disk; it
		// belongs in the reported error alongside whatever failed first.
		err = errors.Join(err, b.Close())
		os.Remove(tmp)
		return nil, fmt.Errorf("store: creating WAL: %w", err)
	}
	if _, err := b.Write(walHeader(gen)); err != nil {
		return fail(err)
	}
	if err := b.Sync(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fail(err)
	}
	if err := fsyncDir(dir); err != nil {
		return fail(err)
	}
	return &walWriter{b: b, sync: sync}, nil
}

// openWALAppend opens an existing, already-validated log for appending.
func openWALAppend(dir, name string, sync WALSyncMode) (*walWriter, error) {
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening WAL: %w", err)
	}
	return &walWriter{b: newWALBackend(f), sync: sync}, nil
}

// replayLegacyWAL replays the legacy wal.gob through apply without
// writing anything: the legacy files stay byte-identical until the
// migration's manifest install supersedes them, so a failed or crashed
// migration simply reruns on the next open. snapGen is the generation of
// the snapshot replay started from (0 when there is none). A log from an
// older generation is a leftover of a crash between snapshot install and
// WAL reset and is skipped — its ops are already inside the snapshot, and
// replaying them would double-apply. A log from a newer generation means
// its snapshot is missing and is ErrWALCorrupt. A torn tail (including a
// torn v2 header) is the usual bounded crash loss and is ignored;
// mid-log damage is ErrWALCorrupt.
func replayLegacyWAL(dir string, snapGen uint64, apply func(walOp) error) error {
	data, err := os.ReadFile(filepath.Join(dir, walFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: reading legacy WAL: %w", err)
	}
	if len(data) > 0 && data[0] != walMagic[0] {
		// v1: one continuous gob stream.
		ops, err := decodeLegacyWAL(data)
		if err != nil {
			return err
		}
		for _, op := range ops {
			if err := apply(op); err != nil {
				return fmt.Errorf("store: applying WAL op %s: %w", op.Kind, err)
			}
		}
		return nil
	}
	if len(data) < walHeaderSize {
		// Empty file, or a v2 header torn mid-write: nothing was durable.
		return nil
	}
	if !bytes.Equal(data[:8], walMagic[:]) {
		return fmt.Errorf("%w: bad magic in legacy WAL header", ErrWALCorrupt)
	}
	gen := binary.LittleEndian.Uint64(data[8:walHeaderSize])
	if gen < snapGen {
		return nil
	}
	if gen > snapGen {
		return fmt.Errorf("%w: legacy WAL generation %d ahead of snapshot generation %d (snapshot missing?)", ErrWALCorrupt, gen, snapGen)
	}
	_, _, err = walkWALFrames(data[walHeaderSize:], apply)
	return err
}

// walkWALFrames walks the frame region of a v2 log (everything after the
// 16-byte header), feeding each decoded op to apply. It returns the
// number of bytes consumed by complete, valid frames and whether the tail
// past that point is torn (incomplete, or a checksum failure confined to
// the final frame). Mid-log damage — an impossible length or a checksum
// mismatch with further data behind it — is ErrWALCorrupt, never silently
// skipped.
func walkWALFrames(data []byte, apply func(walOp) error) (consumed int, torn bool, err error) {
	off := 0
	for off < len(data) {
		if len(data)-off < walFrameHeaderSize {
			return off, true, nil
		}
		length := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if length == 0 || length > maxWALRecord {
			// A torn write is always a strict prefix of valid bytes, so a
			// fully-present-but-impossible length means corruption.
			return off, false, fmt.Errorf("%w: frame at offset %d claims %d-byte payload", ErrWALCorrupt, off, length)
		}
		end := off + walFrameHeaderSize + length
		if end > len(data) {
			return off, true, nil
		}
		payload := data[off+walFrameHeaderSize : end]
		if crc32.Checksum(payload, walCRCTable) != sum {
			if end == len(data) {
				// Damage confined to the final frame is indistinguishable
				// from a torn append; drop that frame and keep the prefix.
				return off, true, nil
			}
			return off, false, fmt.Errorf("%w: checksum mismatch in frame at offset %d", ErrWALCorrupt, off)
		}
		op, err := decodeWALPayload(payload)
		if err != nil {
			return off, false, fmt.Errorf("%w: undecodable frame at offset %d: %v", ErrWALCorrupt, off, err)
		}
		if err := apply(op); err != nil {
			return off, false, fmt.Errorf("store: applying WAL op %s: %w", op.Kind, err)
		}
		off = end
	}
	return off, false, nil
}

func repairTornTail(path string, keep int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: repairing torn WAL tail: %w", err)
	}
	err = f.Truncate(keep)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: repairing torn WAL tail: %w", err)
	}
	return nil
}

// decodeLegacyWAL reads a v1 single-stream log, tolerating a torn tail
// the same way the v1 replayer did.
func decodeLegacyWAL(data []byte) ([]walOp, error) {
	dec := gob.NewDecoder(bytes.NewReader(data))
	var ops []walOp
	for {
		var r walRecord
		err := dec.Decode(&r)
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return ops, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%w: legacy WAL: %v", ErrWALCorrupt, err)
		}
		op, err := r.op()
		if err != nil {
			return nil, fmt.Errorf("%w: legacy WAL: %v", ErrWALCorrupt, err)
		}
		ops = append(ops, op)
	}
}

// fsyncDir makes a just-renamed or just-removed directory entry durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: syncing directory: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: syncing directory: %w", err)
	}
	return nil
}

// snapshotState is the legacy snapshot.gob content: the gob-serialised
// full state. Generation pairs the snapshot with the wal.gob that follows
// it; a snapshot older than generation numbering decodes with Generation
// 0, matching the v1 WALs of its time.
type snapshotState struct {
	Generation      uint64
	NextID          uint64
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

func readSnapshot(dir string) (*snapshotState, error) {
	f, err := os.Open(filepath.Join(dir, snapshotFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: opening snapshot: %w", err)
	}
	//tvdp:nolint errdiscard read-only fd: a close error after a successful decode cannot lose data
	defer f.Close()
	var st snapshotState
	if err := gob.NewDecoder(f).Decode(&st); err != nil {
		return nil, fmt.Errorf("store: decoding snapshot: %w", err)
	}
	return &st, nil
}
