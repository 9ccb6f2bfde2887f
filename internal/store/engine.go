package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// The segment engine: snapshot-free persistence. Mutations land in the
// in-memory memtable (memtable.go), journaled by the group-commit WAL
// exactly as before; when the memtable crosses Config.FlushThreshold
// bytes it is frozen and flushed to a sorted immutable segment file
// *outside* the six subsystem locks. Only the freeze-swap itself holds
// them, and it does O(queued frames) work — drain the pending batch into
// the retiring log, swap the memtable and writer pointers — never
// O(corpus). That avoids the stop-the-world stall of the full-snapshot
// design it replaced, which grew with corpus size and was the dominant
// tail-latency cost.
//
// On-disk layout under Config.Dir:
//
//	MANIFEST        root pointer: live segment list + FlushedGen
//	seg-%06d.seg    immutable sorted segments, oldest number first
//	wal-%06d.log    per-generation logs; gens > FlushedGen are live
//
// Flush protocol (flushOnce):
//
//  1. create wal-(G+1) — two fsyncs — and sync wal-G's backlog
//     (presync), no locks held;
//  2. under all six locks: swap in a fresh memtable, rotate the
//     committer onto the new log (drain pending frames into wal-G and
//     fsync that residue — the chain invariant: a log is fully durable
//     before any frame can land in its successor), bump the live
//     generation to G+1;
//  3. no locks held: serialise the frozen window to seg-N (temp +
//     rename + dir fsync), install a manifest with FlushedGen=G and
//     seg-N appended, delete wal files with gen <= G.
//
// A crash between any two steps is safe: until the manifest lands, the
// frozen window's wal files survive and recovery replays them; after it
// lands, the segment owns those generations and the stale logs are swept.
// Segment numbers come from the manifest's NextSeg counter, so a crashed
// flush's orphan seg file is simply overwritten or deleted next open.
//
// Recovery (openSegment): read MANIFEST, load its segments oldest-first
// (tombstones before rows within each), sweep unreferenced seg/wal
// files, replay the wal generations above FlushedGen in order — they
// rebuild the memtable as they apply, so the next flush carries them —
// and append to the newest log. Replay work is bounded by the flush
// threshold, not the corpus. A torn tail on any log in the chain is the
// usual bounded crash loss and is truncated away — unless a *later*
// generation holds frames, which the chain invariant above makes proof
// that fully-synced bytes went missing: that is media corruption and
// refuses to open. A directory holding the legacy snapshot.gob/wal.gob
// layout (and no MANIFEST) is migrated in place: state loads through the
// read-only legacy loader once, is written out as segment 1, and the
// legacy files are removed (migrateLegacy).
//
// Compaction (compactOnce) runs on its own goroutine, concurrent with
// flushing, with no subsystem lock ever held: when the live segment
// count reaches Config.CompactSegments it merges the segments live at
// that moment oldest-first through a memtable accumulator, drops
// tombstones (the merged output becomes the oldest segment, so nothing
// remains underneath for them to kill) and superseded rows, then
// splices the output over the input prefix — segments flushed during
// the merge stay behind it untouched. Serving never notices; reads hit
// only in-memory state.
//
// Backpressure: writers that find the memtable at or above
// memHardMult × FlushThreshold after their commit park in throttleMem
// (store.go) until the next freeze-swap zeroes it. Sustained ingest
// degrades to flush bandwidth instead of growing an unbounded memtable
// whose ever-larger flushes stall the whole store.
type segEngine struct {
	s *Store

	// manMu guards man, the in-memory mirror of the installed MANIFEST.
	manMu sync.Mutex
	//tvdp:guardedby manMu
	man manifest

	// flushMu serialises flushOnce/compactOnce across the background
	// worker and forced flushes (Snapshot); s.gen is only written under
	// it after Open.
	flushMu sync.Mutex

	flushC chan struct{}
	stopC  chan struct{}
	doneC  chan struct{}

	// compacting gates the single in-flight background compaction; bg
	// tracks its goroutine so stopWorker can wait for it. Compaction runs
	// concurrently with flushes (it holds flushMu only to reserve its
	// output number and to install the result), so writers throttled at
	// the memtable cap never wait behind a full-corpus merge.
	compacting atomic.Bool
	bg         sync.WaitGroup

	flushes     atomic.Uint64
	compactions atomic.Uint64

	// errMu guards lastErr, the first flush/compaction failure; surfaced
	// by Snapshot and Close. Once set the engine fail-stops: flushOnce
	// and compactOnce refuse to run, because a flush that died after its
	// freeze-swap left the frozen window's only durable copy in retired
	// WAL generations — a later flush advancing FlushedGen past them
	// would delete acked data. Mutations keep landing in generations
	// recovery still replays (a failed rotation additionally leaves the
	// committer write-dead, failing them outright).
	errMu sync.Mutex
	//tvdp:guardedby errMu
	lastErr error
}

func (e *segEngine) manifestCopy() manifest {
	e.manMu.Lock()
	defer e.manMu.Unlock()
	return e.man.clone()
}

func (e *segEngine) setManifest(m manifest) {
	e.manMu.Lock()
	e.man = m
	e.manMu.Unlock()
}

func (e *segEngine) recordErr(err error) {
	if err == nil || errors.Is(err, ErrClosed) {
		return
	}
	e.errMu.Lock()
	if e.lastErr == nil {
		e.lastErr = err
	}
	e.errMu.Unlock()
}

func (e *segEngine) takeErr() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.lastErr
}

// sick reports whether a background failure has been recorded. Writers
// parked at the memtable cap check it: once the engine is sick no
// future freeze-swap is guaranteed, so they run uncapped rather than
// strand on the condvar.
func (e *segEngine) sick() bool {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.lastErr != nil
}

// kick nudges the background worker; drops the signal if one is already
// pending.
func (e *segEngine) kick() {
	select {
	case e.flushC <- struct{}{}:
	default:
	}
}

// stopWorker shuts the flush worker down, then waits for any in-flight
// background compaction (only the worker spawns those, so once it has
// exited no new one can start).
func (e *segEngine) stopWorker() {
	close(e.stopC)
	<-e.doneC
	e.bg.Wait()
}

func (e *segEngine) run() {
	defer close(e.doneC)
	for {
		select {
		case <-e.stopC:
			return
		case <-e.flushC:
			// flushOnce/compactOnce record their own failures (they are
			// also reachable via Snapshot, which must fail-stop the same
			// way); here only wake parked writers — the error may have
			// left the memtable over the hard cap with no flush coming,
			// and they should see the sick engine instead of sleeping
			// forever.
			if err := e.flushOnce(); err != nil {
				e.s.wakeThrottled()
				continue
			}
			e.manMu.Lock()
			n := len(e.man.Segments)
			e.manMu.Unlock()
			if n >= e.s.cfg.CompactSegments && e.compacting.CompareAndSwap(false, true) {
				e.bg.Add(1)
				go func() {
					defer e.bg.Done()
					defer e.compacting.Store(false)
					if err := e.compactOnce(); err != nil {
						e.s.wakeThrottled()
					}
				}()
			}
		}
	}
}

// flushOnce freezes the current memtable window and flushes it to a new
// segment. Steps and crash-safety are documented on the type; the only
// section under subsystem locks is the swap itself. Failures are
// recorded and the engine fail-stops (see errMu): once any flush has
// died the frozen-window data may survive only in retired WAL
// generations, and the one safe response is to never install a later
// manifest — refuse here, let WAL generations accumulate, and surface
// the error on Snapshot and Close.
func (e *segEngine) flushOnce() error {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	if err := e.takeErr(); err != nil {
		return fmt.Errorf("store: flush disabled by earlier engine failure: %w", err)
	}
	err := e.flushLocked()
	e.recordErr(err)
	return err
}

// flushLocked is the flush body; callers hold flushMu.
//
//tvdp:requires flushMu
func (e *segEngine) flushLocked() error {
	s := e.s
	if s.closed.Load() {
		return ErrClosed
	}
	if s.memBytes.Load() == 0 {
		return nil
	}
	// Pre-create the next generation's log outside every lock: its two
	// fsyncs are the expensive part of rotation.
	newGen := s.gen + 1
	w, err := createWAL(s.cfg.Dir, newGen, s.cfg.WALSync)
	if err != nil {
		return err
	}
	// Sync the retiring log's backlog now, still outside every lock, so
	// the chain-invariant fsync inside rotateTo covers only the frames
	// that arrive between here and the swap.
	if err := s.com.presync(); err != nil {
		if cerr := w.close(); cerr != nil {
			return errors.Join(err, cerr)
		}
		return err
	}
	s.lockAll()
	if s.closed.Load() {
		s.unlockAll()
		if cerr := w.close(); cerr != nil {
			return errors.Join(ErrClosed, cerr)
		}
		return ErrClosed
	}
	frozen := s.mem
	frozen.nextID = s.nextID.Load()
	s.mem = newMemtable()
	s.memBytes.Store(0)
	frozenGen := s.gen
	old, rerr := s.com.rotateTo(w)
	if rerr == nil {
		s.gen = newGen
	}
	s.unlockAll()
	// The memtable is empty either way (the swap happened before the
	// rotation could fail); release writers parked at the hard cap.
	s.wakeThrottled()
	if rerr != nil {
		return rerr
	}
	// From here on no lock is held; serving proceeds while the frozen
	// window is serialised and installed. Close the retiring log now that
	// the locks are down. A close failure must NOT abort the flush: the
	// frozen rows already left the memtable, so the segment below is the
	// only path that ever makes them durable again — skipping it would let
	// a later flush advance FlushedGen past their log and delete it. The
	// retiring log is already fully synced (rotateTo), so the close adds
	// nothing to durability; finish the flush and surface the error after.
	closeErr := old.close()
	seg := frozen.toSegment(false)
	man := e.manifestCopy()
	prevFlushed := man.FlushedGen
	name := segName(man.NextSeg)
	nbytes, err := writeSegment(s.cfg.Dir, name, seg)
	if err != nil {
		return err
	}
	man.Segments = append(man.Segments, segmentRef{Name: name, Rows: seg.rows(), Bytes: nbytes})
	man.NextSeg++
	man.FlushedGen = frozenGen
	if err := writeManifest(s.cfg.Dir, man); err != nil {
		return err
	}
	e.setManifest(man)
	// The segment now owns generations prevFlushed+1..frozenGen; their
	// logs are garbage. Removal is an optimisation (open sweeps stale
	// gens anyway), so removal errors are not durability errors — but
	// surface them rather than hiding a sick disk.
	for g := prevFlushed + 1; g <= frozenGen; g++ {
		if err := os.Remove(filepath.Join(s.cfg.Dir, walName(g))); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("store: removing flushed WAL: %w", err)
		}
	}
	if err := fsyncDir(s.cfg.Dir); err != nil {
		return err
	}
	e.flushes.Add(1)
	if closeErr != nil {
		return fmt.Errorf("store: closing retiring WAL (flush installed): %w", closeErr)
	}
	return nil
}

// compactOnce merges the current live segment set into one, dropping
// tombstones and superseded rows. No subsystem lock is taken at any
// point, and flushMu is held only for the reserve and install phases —
// the merge itself (the expensive part, O(corpus)) runs with no lock,
// so flushes keep landing underneath and writers throttled at the
// memtable cap never wait behind it. Concurrent flushes only *append*
// segments, so the reserved input set stays the oldest prefix of the
// manifest; the install splices the merged output over exactly that
// prefix. Dropping the prefix's tombstones remains correct because the
// output becomes the oldest segment — there is nothing underneath for
// them to kill. Like flushOnce it records its failures and fail-stops
// once the engine is sick: a sick disk should get no more write traffic,
// and the recorded error must keep surfacing on Snapshot and Close.
func (e *segEngine) compactOnce() error {
	err := e.compact()
	e.recordErr(err)
	return err
}

func (e *segEngine) compact() error {
	s := e.s
	// Reserve: snapshot the input set and claim the output number so a
	// concurrent flush allocates behind it. The bump is in-memory only —
	// every later manifest write persists it, and if none happens before
	// a crash the unreferenced output file is swept at the next open.
	e.flushMu.Lock()
	if s.closed.Load() {
		e.flushMu.Unlock()
		return ErrClosed
	}
	if err := e.takeErr(); err != nil {
		e.flushMu.Unlock()
		return fmt.Errorf("store: compaction disabled by earlier engine failure: %w", err)
	}
	man := e.manifestCopy()
	if len(man.Segments) < 2 {
		e.flushMu.Unlock()
		return nil
	}
	inputs := append([]segmentRef(nil), man.Segments...)
	outNum := man.NextSeg
	man.NextSeg++
	e.setManifest(man)
	e.flushMu.Unlock()

	acc := newMemtable()
	for _, ref := range inputs {
		seg, err := readSegment(s.cfg.Dir, ref.Name)
		if err != nil {
			return err
		}
		if err := acc.absorb(seg); err != nil {
			return fmt.Errorf("store: compacting %s: %w", ref.Name, err)
		}
	}
	out := acc.toSegment(true)
	name := segName(outNum)
	nbytes, err := writeSegment(s.cfg.Dir, name, out)
	if err != nil {
		return err
	}

	// Install: splice the merged segment over the input prefix.
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	cur := e.manifestCopy()
	for i := range inputs {
		if i >= len(cur.Segments) || cur.Segments[i] != inputs[i] {
			// Another compaction (a direct test/tool call racing the
			// background one) already replaced the prefix. Abandon: the
			// corpus is intact, our output is redundant.
			if err := os.Remove(filepath.Join(s.cfg.Dir, name)); err != nil {
				return fmt.Errorf("store: removing abandoned compaction output: %w", err)
			}
			return nil
		}
	}
	newMan := manifest{
		Version:    manifestVersion,
		FlushedGen: cur.FlushedGen,
		NextSeg:    cur.NextSeg,
		Segments: append([]segmentRef{{Name: name, Rows: out.rows(), Bytes: nbytes}},
			cur.Segments[len(inputs):]...),
	}
	if err := writeManifest(s.cfg.Dir, newMan); err != nil {
		return err
	}
	e.setManifest(newMan)
	for _, ref := range inputs {
		if err := os.Remove(filepath.Join(s.cfg.Dir, ref.Name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("store: removing compacted segment: %w", err)
		}
	}
	if err := fsyncDir(s.cfg.Dir); err != nil {
		return err
	}
	e.compactions.Add(1)
	return nil
}

// ---- Open / recovery ----

// openSegment opens or recovers a segment-engine directory: manifest +
// segments + WAL-tail replay, with in-place migration from the legacy
// single-snapshot layout. Runs single-threaded at Open.
func (s *Store) openSegment() error {
	dir := s.cfg.Dir
	// Temp files are in-progress writes that never became durable state.
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		return fmt.Errorf("store: scanning temp files: %w", err)
	}
	for _, p := range tmps {
		if err := os.Remove(p); err != nil {
			return fmt.Errorf("store: removing stale temp file: %w", err)
		}
	}
	man, err := readManifest(dir)
	if err != nil {
		return err
	}
	if man == nil {
		if _, serr := os.Stat(filepath.Join(dir, snapshotFile)); serr == nil {
			return s.migrateLegacy()
		}
		if _, serr := os.Stat(filepath.Join(dir, walFile)); serr == nil {
			return s.migrateLegacy()
		}
		// Fresh directory: install an empty manifest so every later open
		// takes the segment path, then start generation 1.
		fresh := manifest{Version: manifestVersion, FlushedGen: 0, NextSeg: 1}
		if err := writeManifest(dir, fresh); err != nil {
			return err
		}
		return s.startSegment(fresh, nil)
	}
	// A crash after a migration's manifest install can strand the legacy
	// files; the manifest owns everything now.
	for _, legacy := range []string{snapshotFile, walFile} {
		if err := os.Remove(filepath.Join(dir, legacy)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("store: removing superseded legacy file: %w", err)
		}
	}
	live := make(map[string]bool, len(man.Segments))
	for _, ref := range man.Segments {
		live[ref.Name] = true
		seg, err := readSegment(dir, ref.Name)
		if err != nil {
			return err
		}
		if err := s.loadSegment(seg); err != nil {
			return fmt.Errorf("store: loading segment %s: %w", ref.Name, err)
		}
	}
	// Sweep unreferenced segment files (crashed flush or compaction
	// output, superseded compaction inputs).
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: scanning segment dir: %w", err)
	}
	for _, ent := range entries {
		if isSegName(ent.Name()) && !live[ent.Name()] {
			if err := os.Remove(filepath.Join(dir, ent.Name())); err != nil {
				return fmt.Errorf("store: removing orphan segment: %w", err)
			}
		}
	}
	return s.startSegment(*man, entries)
}

// startSegment replays the live WAL chain (generations above
// FlushedGen), wires the committer to the newest log, and starts the
// background worker. entries may be a pre-scanned directory listing
// (nil to scan here).
//
//tvdp:serial runs single-threaded at Open, before the store is shared
func (s *Store) startSegment(man manifest, entries []os.DirEntry) error {
	dir := s.cfg.Dir
	if entries == nil {
		var err error
		entries, err = os.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("store: scanning segment dir: %w", err)
		}
	}
	var gens []uint64
	for _, ent := range entries {
		g, ok := parseWALName(ent.Name())
		if !ok {
			continue
		}
		if g <= man.FlushedGen {
			// Fully contained in the manifest's segments.
			if err := os.Remove(filepath.Join(dir, ent.Name())); err != nil {
				return fmt.Errorf("store: removing flushed WAL: %w", err)
			}
			continue
		}
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	for i, g := range gens {
		if want := gens[0] + uint64(i); g != want {
			return fmt.Errorf("%w: WAL generation %d missing from chain %v", ErrWALCorrupt, want, gens)
		}
	}
	if len(gens) > 0 && gens[0] != man.FlushedGen+1 {
		return fmt.Errorf("%w: WAL chain starts at generation %d, manifest flushed through %d", ErrWALCorrupt, gens[0], man.FlushedGen)
	}

	// The memtable must exist before replay: replayed ops rebuild it so
	// the next flush carries them.
	s.mem = newMemtable()
	// A torn tail anywhere in the chain is the usual bounded crash loss
	// — legal only while every later generation is frameless. Rotation
	// fsyncs a retiring log before the first frame can land in its
	// successor (committer.rotateTo), so frames above a torn predecessor
	// prove fully-synced bytes went missing: media corruption, refuse to
	// open. Tail repairs are deferred until the whole chain has been
	// validated — truncating eagerly would make a refused chain open
	// cleanly (with its mid-history hole) on the *next* attempt.
	type tailRepair struct {
		name string
		keep int64
	}
	var repairs []tailRepair
	torn := false
	for _, g := range gens {
		frames, keep, t, err := s.replaySegmentWAL(g)
		if err != nil {
			return err
		}
		if torn && frames > 0 {
			return fmt.Errorf("%w: %s holds %d frame(s) above an earlier generation's torn tail", ErrWALCorrupt, walName(g), frames)
		}
		if t {
			torn = true
			repairs = append(repairs, tailRepair{name: walName(g), keep: keep})
		}
	}
	for _, r := range repairs {
		if err := repairTornTail(filepath.Join(dir, r.name), r.keep); err != nil {
			return err
		}
	}
	var w *walWriter
	if len(gens) > 0 {
		var err error
		w, err = openWALAppend(dir, walName(gens[len(gens)-1]), s.cfg.WALSync)
		if err != nil {
			return err
		}
	} else {
		var err error
		s.gen = man.FlushedGen + 1
		w, err = createWAL(dir, s.gen, s.cfg.WALSync)
		if err != nil {
			return err
		}
	}
	s.com = newWALCommitter(w, s.cfg.WALSync)
	e := &segEngine{
		s:      s,
		man:    man,
		flushC: make(chan struct{}, 1),
		stopC:  make(chan struct{}),
		doneC:  make(chan struct{}),
	}
	s.eng = e
	go e.run()
	return nil
}

// replaySegmentWAL replays one live generation's log into state and the
// memtable. It returns how many complete frames it applied, the byte
// length of the valid prefix (header included — the truncation point a
// torn tail should be repaired to), and whether the tail past that
// prefix is torn. It performs no repair and opens nothing for append:
// the caller (startSegment) validates the whole chain first — a torn
// tail is only legal while every later generation is frameless — and
// repairs the surviving logs afterwards.
//
//tvdp:serial WAL-tail replay runs single-threaded at Open
func (s *Store) replaySegmentWAL(gen uint64) (int, int64, bool, error) {
	dir := s.cfg.Dir
	name := walName(gen)
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return 0, 0, false, fmt.Errorf("store: reading %s: %w", name, err)
	}
	if len(data) < walHeaderSize {
		// createWAL installs a log via temp + rename, so a file shorter
		// than its header cannot be a crash artifact; treat as corruption
		// rather than inventing state.
		return 0, 0, false, fmt.Errorf("%w: %s shorter than its header", ErrWALCorrupt, name)
	}
	if [8]byte(data[:8]) != walMagic {
		return 0, 0, false, fmt.Errorf("%w: bad magic in %s", ErrWALCorrupt, name)
	}
	if g := binary.LittleEndian.Uint64(data[8:walHeaderSize]); g != gen {
		return 0, 0, false, fmt.Errorf("%w: %s carries generation %d", ErrWALCorrupt, name, g)
	}
	frames := 0
	n, torn, err := walkWALFrames(data[walHeaderSize:], func(op walOp) error {
		frames++
		return s.applyOp(op)
	})
	if err != nil {
		return 0, 0, false, fmt.Errorf("store: replaying %s: %w", name, err)
	}
	s.memBytes.Add(int64(n))
	s.gen = gen
	return frames, int64(walHeaderSize + n), torn, nil
}

// loadSegment applies one segment's rows into in-memory state.
// Tombstones go first: they kill rows from older segments, and within a
// delete-then-readd window they clear the way for the segment's own
// fresh row. Runs single-threaded at Open.
//
//tvdp:serial segment load runs single-threaded at Open
func (s *Store) loadSegment(seg *segmentData) error {
	for _, id := range seg.Tombstones {
		if _, ok := s.images[id]; ok {
			if err := s.applyDeleteImage(id); err != nil {
				return err
			}
		}
	}
	for _, rec := range seg.Images {
		img, err := rec.image()
		if err != nil {
			return err
		}
		if err := s.applyImage(img); err != nil {
			return err
		}
	}
	for _, c := range seg.Classifications {
		if err := s.applyClassification(c); err != nil {
			return err
		}
	}
	for _, u := range seg.Users {
		if err := s.applyUser(u); err != nil {
			return err
		}
	}
	for _, k := range seg.APIKeys {
		s.applyAPIKey(k)
	}
	for _, v := range seg.Videos {
		if err := s.applyVideo(v); err != nil {
			return err
		}
	}
	for _, c := range seg.Campaigns {
		if err := s.applyCampaign(c); err != nil {
			return err
		}
	}
	for _, f := range seg.Features {
		if err := s.applyFeature(f); err != nil {
			return err
		}
	}
	for _, a := range seg.Annotations {
		if err := s.applyAnnotation(a); err != nil {
			return err
		}
	}
	for _, k := range seg.Keywords {
		if err := s.applyKeywords(k.ImageID, k.Words); err != nil {
			return err
		}
	}
	s.bumpNextID(seg.NextID)
	return nil
}

// migrateLegacy converts a legacy snapshot.gob/wal.gob directory to the
// segment layout in place: load state through the read-only legacy
// loader (readSnapshot + replayLegacyWAL), write it out as segment 1,
// install the manifest, delete the legacy files. Nothing is written
// before the segment, so a failure or crash before the manifest install
// leaves the legacy files byte-identical and migration simply reruns;
// after it, the stale legacy files are swept by the next open.
//
//tvdp:serial legacy migration runs single-threaded at Open
func (s *Store) migrateLegacy() error {
	dir := s.cfg.Dir
	snap, err := readSnapshot(dir)
	if err != nil {
		return err
	}
	if snap != nil {
		if err := s.loadSnapshot(snap); err != nil {
			return err
		}
		s.gen = snap.Generation
	}
	if err := replayLegacyWAL(dir, s.gen, s.applyOp); err != nil {
		return err
	}
	seg := s.stateToSegment()
	nbytes, err := writeSegment(dir, segName(1), seg)
	if err != nil {
		return err
	}
	man := manifest{
		Version:    manifestVersion,
		FlushedGen: s.gen,
		NextSeg:    2,
		Segments:   []segmentRef{{Name: segName(1), Rows: seg.rows(), Bytes: nbytes}},
	}
	if err := writeManifest(dir, man); err != nil {
		return err
	}
	for _, legacy := range []string{snapshotFile, walFile} {
		if err := os.Remove(filepath.Join(dir, legacy)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("store: removing migrated legacy file: %w", err)
		}
	}
	if err := fsyncDir(dir); err != nil {
		return err
	}
	return s.startSegment(man, nil)
}

// stateToSegment serialises the whole in-memory state as one segment —
// the migration image. Single-threaded at Open.
//
//tvdp:serial runs single-threaded at Open, before the store is shared
func (s *Store) stateToSegment() *segmentData {
	m := newMemtable()
	for _, id := range s.ids {
		m.addImage(s.images[id])
	}
	for id, kinds := range s.features {
		for kind, vec := range kinds {
			m.putFeature(&Feature{ImageID: id, Kind: kind, Vec: vec})
		}
	}
	for _, c := range s.classifications {
		m.addClass(c)
	}
	for id, anns := range s.annotations {
		for i := range anns {
			a := anns[i]
			a.ImageID = id
			m.addAnnotation(&a)
		}
	}
	for id, words := range s.keywords {
		m.keywords[id] = append([]string(nil), words...)
	}
	for _, u := range s.users {
		m.addUser(u)
	}
	for _, k := range s.apiKeys {
		m.addAPIKey(k)
	}
	for _, v := range s.videos {
		m.addVideo(v)
	}
	for _, c := range s.campaigns {
		m.addCampaign(c)
	}
	m.nextID = s.nextID.Load()
	return m.toSegment(true)
}

// ---- Observability ----

// EngineStats reports persistence-engine activity since Open.
type EngineStats struct {
	// Segments and SegmentBytes describe the live segment set.
	Segments     int
	SegmentBytes int64
	// MemBytes is the current memtable's WAL-byte footprint — the bound
	// on replay work if the process died now.
	MemBytes int64
	// Flushes and Compactions count completed background operations.
	Flushes     uint64
	Compactions uint64
}

// EngineStats returns persistence counters (zero for memory-only
// stores).
func (s *Store) EngineStats() EngineStats {
	var st EngineStats
	if s.eng == nil {
		return st
	}
	st.MemBytes = s.memBytes.Load()
	st.Flushes = s.eng.flushes.Load()
	st.Compactions = s.eng.compactions.Load()
	s.eng.manMu.Lock()
	st.Segments = len(s.eng.man.Segments)
	for _, ref := range s.eng.man.Segments {
		st.SegmentBytes += ref.Bytes
	}
	s.eng.manMu.Unlock()
	return st
}
