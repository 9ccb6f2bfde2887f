// Package guardedbyfix is the guardedby analyzer's golden fixture: every
// access shape the checker must flag, next to the locking idioms it must
// accept — the early-return unlock closure, deferred unlocks, RLock
// reads, requires contracts, alternation, and serial exemptions.
package guardedbyfix

import (
	"sort"
	"sync"
)

type box struct {
	mu sync.RWMutex
	// count is the plainly guarded field.
	//tvdp:guardedby mu
	count int
	//tvdp:guardedby mu
	items map[string]int

	alt sync.Mutex
	// either may be covered by mu or alt.
	//tvdp:guardedby mu|alt
	either int

	// loose has no annotation; access is never checked.
	loose int

	//tvdp:guardedby // want "guardedby annotation names no mutex"
	broken int
}

// readLocked is the canonical read: RLock suffices.
func (b *box) readLocked() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.count
}

// writeLocked is the canonical write.
func (b *box) writeLocked(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.count = n
	b.items["k"] = n
	delete(b.items, "j")
}

func (b *box) readUnlocked() int {
	return b.count + b.loose // want "read of count"
}

func (b *box) writeUnderRLock(n int) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	b.count = n // want "write to count"
}

func (b *box) writeAfterUnlock(n int) {
	b.mu.Lock()
	b.count = n
	b.mu.Unlock()
	b.count = n // want "write to count"
}

// earlyReturn exercises the store's unlock-closure idiom: the error
// branch releases and bails, the fall-through path is still locked.
func (b *box) earlyReturn(n int) bool {
	b.mu.Lock()
	unlock := func() { b.mu.Unlock() }
	if n < 0 {
		unlock()
		return false
	}
	b.count = n
	unlock()
	return true
}

// afterClosureUnlock shows the closure's release escaping to the caller's
// flow: past the unconditional unlock() the lock is gone.
func (b *box) afterClosureUnlock(n int) {
	b.mu.Lock()
	unlock := func() { b.mu.Unlock() }
	b.count = n
	unlock()
	b.count = n // want "write to count"
}

// callbackUnderLock: an inline literal runs where it appears, so the
// sort.Search callback reads under the caller's lock.
func (b *box) callbackUnderLock() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return sort.Search(8, func(i int) bool { return b.count > i })
}

// goroutineInheritsNothing: a spawned body starts with no locks held.
func (b *box) goroutineInheritsNothing(done chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	go func() {
		b.count++ // want "write to count"
		close(done)
	}()
	<-done
}

// applyCount is a requires contract: callers must hold mu exclusively.
//
//tvdp:requires mu
func (b *box) applyCount(n int) {
	b.count = n
}

// readCount needs mu at least read-held.
//
//tvdp:requires mu:r
func (b *box) readCount() int {
	return b.count
}

func (b *box) goodCaller(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.applyCount(n)
}

func (b *box) readCaller() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.readCount()
}

func (b *box) badCaller(n int) {
	b.applyCount(n) // want "call to applyCount requires mu held"
}

func (b *box) rlockIsNotEnough(n int) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	b.applyCount(n) // want "call to applyCount requires mu held"
}

// lockBoth / unlockBoth exercise the one-level splice: their lock traffic
// lands at the call site.
func (b *box) lockBoth() {
	b.mu.Lock()
	b.alt.Lock()
}

func (b *box) unlockBoth() {
	b.alt.Unlock()
	b.mu.Unlock()
}

func (b *box) splicedCaller(n int) {
	b.lockBoth()
	b.count = n
	b.either = n
	b.unlockBoth()
}

// eitherAlt: holding the second alternative also satisfies mu|alt.
func (b *box) eitherAlt(n int) {
	b.alt.Lock()
	defer b.alt.Unlock()
	b.either = n
}

func (b *box) neitherAlt(n int) {
	b.either = n // want "write to either"
}

// trySkip is the skip-if-busy idiom: TryLock whose failure branch bails.
func (b *box) trySkip(n int) {
	if !b.mu.TryLock() {
		return
	}
	defer b.mu.Unlock()
	b.count = n
}

// initBox runs before the box is shared.
//
//tvdp:serial runs during construction, before any goroutine sees b
func initBox(b *box) {
	b.count = 1
	b.items = map[string]int{}
	b.applyCount(2)
}

// badSerial lacks a justification, so it exempts nothing.
//
//tvdp:serial // want "serial annotation has no justification"
func badSerial(b *box) {
	b.count = 3 // want "write to count"
}

// suppressed shows the escape hatch for a deliberate lock-free access.
func suppressed(b *box) int {
	//tvdp:nolint guardedby read is a racy stats peek, tolerated by design
	return b.count
}
