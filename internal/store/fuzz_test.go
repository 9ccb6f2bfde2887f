package store

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// The decoder fuzz targets. Their seed corpora under testdata/fuzz hold
// both pixel shapes: payloads gob-encoded from walOp and from a segment
// whose images are plain Image rows (the struct-per-pixel shape written
// before the packed encoding), and payloads written by the packed codec
// (encodeFrame, memtable.toSegment). Two WAL seeds are well-formed gob
// but bad records — an add_keywords op without its payload and a packed
// raster whose size disagrees with its bytes — which replay must refuse
// rather than dereference or allocate for. `go test` replays the seeds;
// `go test -fuzz FuzzWALFrame` (or FuzzSegment) explores from them.

// FuzzWALFrame feeds arbitrary bytes to the WAL frame walker twice: raw,
// as a frame region (length and checksum handling), and wrapped as one
// well-formed frame, so the payload decoder and replay run past the
// checksum. Every outcome must be an error or a clean apply — never a
// panic or an allocation larger than the input.
func FuzzWALFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Open(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// Raw bytes are almost never a valid frame; any outcome but a
		// panic is fine.
		_, _, _ = walkWALFrames(data, s.applyOp)
		frame := make([]byte, walFrameHeaderSize+len(data))
		binary.LittleEndian.PutUint32(frame[0:], uint32(len(data)))
		binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(data, walCRCTable))
		copy(frame[walFrameHeaderSize:], data)
		n, torn, err := walkWALFrames(frame, s.applyOp)
		if err == nil && (n != len(frame) || torn) && len(data) > 0 {
			t.Fatalf("well-formed frame: consumed %d of %d bytes, torn %v, no error", n, len(frame), torn)
		}
	})
}

// FuzzSegment decodes arbitrary bytes as a segment payload (the bytes a
// verified segment file holds past its header) and loads what decodes,
// both into a store, as recovery does, and into a compaction
// accumulator. Neither may panic.
func FuzzSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		seg, err := decodeSegment(payload)
		if err != nil {
			return
		}
		s, err := Open(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// A decoded segment may still hold bad rows; refusing them is
		// the expected outcome.
		_ = s.loadSegment(seg)
		_ = newMemtable().absorb(seg)
	})
}
