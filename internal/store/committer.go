package store

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Group-commit WAL committer. Mutations no longer write the log
// themselves: while holding their subsystem locks they enqueue
// pre-encoded frames, then — after releasing the locks — block on a
// commit notification. A single committer goroutine drains the queue,
// concatenates every pending frame into one buffered write, issues at
// most one fsync for the whole batch, and wakes every waiter. Under
// concurrent load that coalesces N fsyncs into one without weakening the
// durability contract: a mutation still does not return until its bytes
// (and, with SyncEveryWrite, its fsync) are on disk.
//
// Ordering: frames are written in enqueue order, and enqueues happen
// while the mutating goroutine still holds its subsystem write lock, so
// the log order of any one subsystem matches its in-memory apply order.
// Cross-subsystem dependencies (a feature referencing an image) are safe
// because the dependent call can only be issued after the prerequisite
// mutation returned, i.e. after its frame was already committed.

// commitWait is one enqueued batch member: its frame bytes and the
// channel its mutation blocks on.
type commitWait struct {
	buf  []byte
	ops  uint64
	errc chan error
}

// noneFlushBytes is the SyncNone buffer high-water mark: batches
// accumulate in memory and hit the file only when the buffer crosses it
// (or on rotation/close), trading a bounded window of acknowledged but
// unwritten ops for the fewest possible write syscalls.
const noneFlushBytes = 256 << 10

// walCommitter serialises WAL appends through one goroutine.
type walCommitter struct {
	// wmu serialises every writer interaction (batch writes, flushes,
	// rotation, close) so frames never interleave mid-batch.
	wmu sync.Mutex
	// w is the current log writer; nil after a failed rotation or close,
	// which fails subsequent batches instead of panicking.
	//tvdp:guardedby wmu
	w *walWriter
	// mode selects the batch durability level: SyncImmediate fsyncs each
	// batch before waking its waiters, SyncBatch issues one write per
	// batch and leaves the fsync to the OS, SyncNone buffers batches in
	// memory (buf, guarded by wmu) until noneFlushBytes accumulate.
	mode WALSyncMode
	//tvdp:guardedby wmu
	buf []byte

	// mu guards the queue and the stopped flag.
	mu sync.Mutex
	//tvdp:guardedby mu
	pending []commitWait
	//tvdp:guardedby mu
	stopped bool

	wake chan struct{}
	stop chan struct{}
	done chan struct{}

	// Group-commit observability counters (see Store.WALStats).
	ops     atomic.Uint64
	batches atomic.Uint64
	fsyncs  atomic.Uint64
}

func newWALCommitter(w *walWriter, mode WALSyncMode) *walCommitter {
	c := &walCommitter{
		w:    w,
		mode: mode,
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go c.run()
	return c
}

func (c *walCommitter) run() {
	defer close(c.done)
	for {
		select {
		case <-c.wake:
			c.commitPending()
		case <-c.stop:
			// Final drain: anything enqueued before stop was observed must
			// still reach the log.
			c.commitPending()
			return
		}
	}
}

// enqueue queues one batch member and returns the channel its commit
// outcome will be delivered on. Callers hold their subsystem write lock,
// which is what pins log order to apply order.
//
//tvdp:requires catalogMu|imagesMu|featMu|annMu|kwMu|geoMu
func (c *walCommitter) enqueue(buf []byte, ops uint64) <-chan error {
	errc := make(chan error, 1)
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		errc <- ErrClosed
		return errc
	}
	c.pending = append(c.pending, commitWait{buf: buf, ops: ops, errc: errc})
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
	return errc
}

// commitPending writes everything queued so far as one batch: a single
// Write of the concatenated frames, then at most one fsync.
func (c *walCommitter) commitPending() {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.commitLocked()
}

// commitLocked is commitPending with wmu already held.
//
//tvdp:requires wmu
func (c *walCommitter) commitLocked() {
	c.mu.Lock()
	batch := c.pending
	c.pending = nil
	c.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	err := c.writeBatch(batch)
	c.batches.Add(1)
	for _, m := range batch {
		if err == nil {
			c.ops.Add(m.ops)
		}
		m.errc <- err
	}
}

// writeBatch appends one concatenated batch to the current log. Callers
// hold wmu.
//
//tvdp:requires wmu
func (c *walCommitter) writeBatch(batch []commitWait) error {
	if c.w == nil || c.w.b == nil {
		return fmt.Errorf("store: appending WAL batch: %w", ErrClosed)
	}
	if c.mode == SyncNone {
		// Buffer in memory; the file sees one big write per high-water
		// crossing. Waiters are acked on buffering — that is the stated
		// SyncNone contract (a crash can lose the buffered window).
		for _, m := range batch {
			c.buf = append(c.buf, m.buf...)
		}
		if len(c.buf) < noneFlushBytes {
			return nil
		}
		return c.flushBufLocked()
	}
	n := 0
	for _, m := range batch {
		n += len(m.buf)
	}
	buf := make([]byte, 0, n)
	for _, m := range batch {
		buf = append(buf, m.buf...)
	}
	if _, err := c.w.b.Write(buf); err != nil {
		return fmt.Errorf("store: appending WAL batch of %d op(s): %w", len(batch), err)
	}
	if c.mode == SyncImmediate {
		if err := c.w.b.Sync(); err != nil {
			return fmt.Errorf("store: syncing WAL: %w", err)
		}
		c.fsyncs.Add(1)
	}
	return nil
}

// flushBufLocked writes the SyncNone buffer through to the current log.
// Callers hold wmu.
//
//tvdp:requires wmu
func (c *walCommitter) flushBufLocked() error {
	if len(c.buf) == 0 {
		return nil
	}
	if c.w == nil || c.w.b == nil {
		return fmt.Errorf("store: flushing buffered WAL bytes: %w", ErrClosed)
	}
	buf := c.buf
	c.buf = c.buf[:0]
	if _, err := c.w.b.Write(buf); err != nil {
		return fmt.Errorf("store: flushing %d buffered WAL byte(s): %w", len(buf), err)
	}
	return nil
}

// presync makes every byte so far written to the current log durable —
// the out-of-lock half of the rotation chain invariant (see rotateTo).
// The segment engine calls it just before taking the subsystem locks so
// that rotateTo's own fsync, which does run under them, covers only the
// handful of frames that arrive in between. Any failure leaves the
// committer write-dead (w = nil): after a failed buffer flush the
// log may hold a partial batch mid-file, and after a failed fsync the
// kernel may have dropped the dirty pages — either way appending further
// frames could persist a log with a hole in it.
func (c *walCommitter) presync() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.commitLocked()
	if err := c.flushBufLocked(); err != nil {
		c.w = nil
		return err
	}
	if c.w == nil || c.w.b == nil {
		return fmt.Errorf("store: syncing WAL before rotation: %w", ErrClosed)
	}
	if err := c.w.b.Sync(); err != nil {
		c.w = nil
		return fmt.Errorf("store: syncing WAL before rotation: %w", err)
	}
	return nil
}

// rotateTo drains every pending frame into the retiring log and swaps in
// the replacement writer, which the caller has already created — the
// segment engine builds the next generation's log (two fsyncs) and syncs
// the retiring log's backlog (presync) before taking any subsystem lock,
// so the freeze-swap under all six locks drains the pending batch into
// the retiring log, fsyncs that small residue, and swaps the pointer:
// O(queued frames), never O(corpus). The retiring writer is returned
// still open for the caller to close once the locks are released.
// Callers hold every subsystem write lock. On failure the replacement is
// closed and the committer goes write-dead (w = nil), as in presync.
//
//tvdp:requires catalogMu,imagesMu,featMu,annMu,kwMu,geoMu
func (c *walCommitter) rotateTo(w *walWriter) (*walWriter, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.commitLocked()
	fail := func(err error) (*walWriter, error) {
		c.w = nil
		if cerr := w.close(); cerr != nil {
			return nil, fmt.Errorf("%w (and closing replacement log: %v)", err, cerr)
		}
		return nil, err
	}
	if err := c.flushBufLocked(); err != nil {
		return fail(err)
	}
	if c.w == nil || c.w.b == nil {
		return fail(fmt.Errorf("store: rotating WAL: %w", ErrClosed))
	}
	// Chain invariant: every byte of the retiring log must be durable
	// before the swap makes its successor reachable for frames. Without
	// this sync, a power loss could leave the retiring log with a torn
	// unsynced tail underneath frames already fsynced into the successor
	// — a non-prefix hole recovery must refuse (startSegment treats a
	// torn tail under later frames as ErrWALCorrupt). The fsync here is
	// cheap: presync ran moments ago, so only the frames drained just
	// above are still dirty.
	if err := c.w.b.Sync(); err != nil {
		return fail(fmt.Errorf("store: syncing retiring WAL: %w", err))
	}
	old := c.w
	c.w = w
	return old, nil
}

// close drains the queue, stops the goroutine, and closes the log file.
// Safe to call more than once.
func (c *walCommitter) close() error {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		<-c.done
		return nil
	}
	c.stopped = true
	c.mu.Unlock()
	close(c.stop)
	<-c.done
	c.wmu.Lock()
	defer c.wmu.Unlock()
	err := c.flushBufLocked()
	if cerr := c.w.close(); err == nil {
		err = cerr
	}
	c.w = nil
	return err
}

// WALStats reports group-commit counters since Open. FsyncsPerOp going
// well below 1 under concurrent SyncEveryWrite load is the direct
// evidence that batching is working.
type WALStats struct {
	// Ops counts durably committed WAL operations.
	Ops uint64
	// Batches counts committer wake-ups that wrote at least one frame.
	Batches uint64
	// Fsyncs counts batch fsyncs (0 unless SyncEveryWrite).
	Fsyncs uint64
}

// WALStats returns the group-commit counters (zero for memory-only
// stores).
func (s *Store) WALStats() WALStats {
	if s.com == nil {
		return WALStats{}
	}
	return WALStats{
		Ops:     s.com.ops.Load(),
		Batches: s.com.batches.Load(),
		Fsyncs:  s.com.fsyncs.Load(),
	}
}
