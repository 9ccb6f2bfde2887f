package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The lockorder analyzer enforces the store's deadlock-avoidance
// discipline, documented on the Store type: subsystem locks are always
// acquired in the fixed order catalogMu → imagesMu → featMu → annMu →
// kwMu → geoMu. `go test -race` cannot see a lock-order inversion — an
// inversion deadlocks only under the losing interleaving, which a finite
// test run may never produce — so the order is checked statically.
//
// The model is intra-procedural with a one-level splice of the
// same-package call graph: each function's Lock/RLock/Unlock/RUnlock
// sequence on table mutexes is extracted in source order, calls to
// same-package functions inline the callee's direct lock events at the
// call site, and the combined stream is replayed against a held-set.
// Acquiring a mutex while holding one that ranks after it is a finding, as
// is re-acquiring a mutex already held.
//
// The analyzer also flags blocking file I/O performed while any subsystem
// lock is held (fsync, file writes, renames — directly or through the
// same-package call graph at any depth).
//
// Approximations, chosen to match the store's idiom: function literals are
// treated as executing where they are defined (the `unlock := func() {...}`
// helpers release their locks on every path before the next lock-relevant
// operation, so this is safe here), and deferred calls run at function
// exit.

// StoreLockOrder is the canonical subsystem-mutex acquisition order. A
// test asserts this table against the RWMutex field order declared on
// store.Store, so the analyzer and the documentation cannot drift apart.
var StoreLockOrder = []string{"catalogMu", "imagesMu", "featMu", "annMu", "kwMu", "geoMu"}

// LockOrder is the analyzer. Order lists mutex field names from first- to
// last-acquired.
type LockOrder struct {
	Order []string
}

// NewLockOrder returns the production-configured analyzer.
func NewLockOrder() *LockOrder {
	return &LockOrder{Order: StoreLockOrder}
}

func (l *LockOrder) Name() string { return "lockorder" }

// Doc describes the analyzer in one line.
func (l *LockOrder) Doc() string {
	return "subsystem mutexes must be acquired in the documented order, and file I/O must not run under them"
}

type lockEvKind int

const (
	evAcquire lockEvKind = iota
	evRelease
	evIO
	evCall
)

type lockEvent struct {
	kind   lockEvKind
	rank   int
	rlock  bool
	pos    token.Pos
	what   string      // mutex name, or I/O description
	callee *types.Func // for evCall
}

// funcLockInfo is one function's summary.
type funcLockInfo struct {
	name   string
	events []lockEvent // direct events + call markers, source order, defers last
	io     bool        // performs file I/O directly
}

// Check runs the analyzer over one package.
func (l *LockOrder) Check(pkg *Package) []Finding {
	rank := map[string]int{}
	for i, m := range l.Order {
		rank[m] = i
	}

	// Pass 1: per-function direct summaries.
	infos := map[*types.Func]*funcLockInfo{}
	var decls []*ast.FuncDecl
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			decls = append(decls, fd)
			infos[obj] = l.summarize(pkg, fd, rank)
		}
	}

	// Pass 2: transitive does-file-I/O over the same-package call graph.
	ioTrans := map[*types.Func]bool{}
	var reaches func(fn *types.Func, seen map[*types.Func]bool) bool
	reaches = func(fn *types.Func, seen map[*types.Func]bool) bool {
		if v, ok := ioTrans[fn]; ok {
			return v
		}
		if seen[fn] {
			return false
		}
		seen[fn] = true
		info := infos[fn]
		if info == nil {
			return false
		}
		if info.io {
			ioTrans[fn] = true
			return true
		}
		for _, ev := range info.events {
			if ev.kind == evCall && reaches(ev.callee, seen) {
				ioTrans[fn] = true
				return true
			}
		}
		ioTrans[fn] = false
		return false
	}
	for fn := range infos {
		reaches(fn, map[*types.Func]bool{})
	}

	// Pass 3: replay each function's effective event stream.
	var out []Finding
	for _, fd := range decls {
		obj := pkg.Info.Defs[fd.Name].(*types.Func)
		out = append(out, l.replay(pkg, obj, infos, ioTrans)...)
	}
	return out
}

// summarize extracts a function's direct lock/IO/call events in source
// order. Deferred statements contribute their events at the end of the
// stream (function exit); function literals contribute inline where they
// are defined.
func (l *LockOrder) summarize(pkg *Package, fd *ast.FuncDecl, rank map[string]int) *funcLockInfo {
	info := &funcLockInfo{name: fd.Name.Name}
	var deferred []lockEvent
	var walk func(n ast.Node, sink *[]lockEvent)
	walk = func(n ast.Node, sink *[]lockEvent) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				walk(n.Call, &deferred)
				return false
			case *ast.CallExpr:
				if ev, ok := l.classify(pkg, n, rank); ok {
					*sink = append(*sink, ev)
					if ev.kind == evIO {
						info.io = true
					}
				}
				return true
			}
			return true
		})
	}
	walk(fd.Body, &info.events)
	info.events = append(info.events, deferred...)
	return info
}

// classify maps one call expression to a lock event, if it is one.
func (l *LockOrder) classify(pkg *Package, call *ast.CallExpr, rank map[string]int) (lockEvent, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		// Plain identifier call: possibly a same-package function.
		if fn := funcObj(pkg.Info, call); fn != nil && fn.Pkg() == pkg.Pkg {
			return lockEvent{kind: evCall, pos: call.Pos(), callee: fn}, true
		}
		return lockEvent{}, false
	}
	method := sel.Sel.Name

	// Lock-table traffic: <recv>.<mutex>.Lock() where <mutex> is a table
	// name and the method really is sync.(RW)Mutex locking.
	switch method {
	case "Lock", "RLock", "Unlock", "RUnlock":
		if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
			if name, ok := mutexName(sel.X); ok {
				if r, ok := rank[name]; ok {
					ev := lockEvent{rank: r, pos: call.Pos(), what: name}
					switch method {
					case "Lock":
						ev.kind = evAcquire
					case "RLock":
						ev.kind, ev.rlock = evAcquire, true
					default:
						ev.kind = evRelease
					}
					return ev, true
				}
			}
		}
		return lockEvent{}, false
	}

	if what, ok := l.ioCall(pkg, call, sel); ok {
		return lockEvent{kind: evIO, pos: call.Pos(), what: what}, true
	}
	if fn := funcObj(pkg.Info, call); fn != nil && fn.Pkg() == pkg.Pkg {
		return lockEvent{kind: evCall, pos: call.Pos(), callee: fn}, true
	}
	return lockEvent{}, false
}

// mutexName extracts the mutex field/variable name from the receiver
// expression of a Lock call: s.geoMu.Lock() or geoMu.Lock().
func mutexName(x ast.Expr) (string, bool) {
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name, true
	case *ast.Ident:
		return x.Name, true
	}
	return "", false
}

// ioCall reports whether a call is blocking file I/O: os package file
// operations, methods on *os.File, or write/sync/close traffic on a
// file-like interface (one declaring both Write and Sync — the WAL
// backend shape).
func (l *LockOrder) ioCall(pkg *Package, call *ast.CallExpr, sel *ast.SelectorExpr) (string, bool) {
	fn, _ := pkg.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return "", false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "os" {
		switch fn.Name() {
		case "Rename", "Remove", "RemoveAll", "Open", "OpenFile", "Create",
			"ReadFile", "WriteFile", "Truncate", "Mkdir", "MkdirAll", "ReadDir":
			return "os." + fn.Name(), true
		}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	switch fn.Name() {
	case "Write", "WriteString", "Sync", "Close", "Truncate", "ReadFrom":
	default:
		return "", false
	}
	recv := deref(sig.Recv().Type())
	if named, ok := recv.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "os" && obj.Name() == "File" {
			return "(*os.File)." + fn.Name(), true
		}
	}
	if iface, ok := recv.Underlying().(*types.Interface); ok && fileLike(iface) {
		return "backend " + fn.Name(), true
	}
	return "", false
}

// fileLike reports whether an interface has both Write and Sync in its
// method set — the shape of a WAL/file backend, as opposed to an arbitrary
// io.Writer (whose Write is routinely an in-memory buffer append).
func fileLike(iface *types.Interface) bool {
	var hasWrite, hasSync bool
	for i := 0; i < iface.NumMethods(); i++ {
		switch iface.Method(i).Name() {
		case "Write":
			hasWrite = true
		case "Sync":
			hasSync = true
		}
	}
	return hasWrite && hasSync
}

// replay expands one function's event stream (splicing callee lock events
// one level deep, and I/O reachability at any depth) and checks it against
// the held-set.
func (l *LockOrder) replay(pkg *Package, fn *types.Func, infos map[*types.Func]*funcLockInfo, ioTrans map[*types.Func]bool) []Finding {
	info := infos[fn]
	var stream []lockEvent
	for _, ev := range info.events {
		if ev.kind != evCall {
			stream = append(stream, ev)
			continue
		}
		callee := infos[ev.callee]
		if callee == nil {
			continue
		}
		// One-level splice: the callee's direct lock events happen at the
		// call site, in the callee's order.
		for _, cev := range callee.events {
			if cev.kind == evAcquire || cev.kind == evRelease {
				spliced := cev
				spliced.pos = ev.pos
				spliced.what = cev.what + " (via " + callee.name + ")"
				stream = append(stream, spliced)
			}
		}
		if ioTrans[ev.callee] {
			stream = append(stream, lockEvent{kind: evIO, pos: ev.pos, what: callee.name + " (does file I/O)"})
		}
	}

	held := map[int]lockEvent{}
	heldNames := func() string {
		ranks := make([]int, 0, len(held))
		for r := range held {
			ranks = append(ranks, r)
		}
		sort.Ints(ranks)
		names := make([]string, len(ranks))
		for i, r := range ranks {
			names[i] = l.Order[r]
		}
		return strings.Join(names, ", ")
	}

	var out []Finding
	for _, ev := range stream {
		switch ev.kind {
		case evAcquire:
			for r := len(l.Order) - 1; r >= 0; r-- {
				if _, ok := held[r]; ok && r > ev.rank {
					out = append(out, Finding{
						Analyzer: l.Name(),
						Pos:      posOf(pkg, ev.pos),
						Message: fmt.Sprintf("%s: acquires %s while holding %s; the order is %s",
							info.name, ev.what, l.Order[r], strings.Join(l.Order, " → ")),
						Hint: "acquire subsystem locks in table order (release and re-acquire if necessary)",
					})
					break
				}
			}
			if prev, dup := held[ev.rank]; dup {
				out = append(out, Finding{
					Analyzer: l.Name(),
					Pos:      posOf(pkg, ev.pos),
					Message:  fmt.Sprintf("%s: re-acquires %s already held (first at line %d)", info.name, ev.what, posOf(pkg, prev.pos).Line),
					Hint:     "a second Lock on a held (RW)Mutex self-deadlocks; restructure so each path locks once",
				})
			}
			held[ev.rank] = ev
		case evRelease:
			delete(held, ev.rank)
		case evIO:
			if len(held) > 0 {
				out = append(out, Finding{
					Analyzer: l.Name(),
					Pos:      posOf(pkg, ev.pos),
					Message:  fmt.Sprintf("%s: blocking file I/O (%s) while holding %s", info.name, ev.what, heldNames()),
					Hint:     "move the I/O outside the critical section (encode before locking, enqueue to the committer)",
				})
			}
		}
	}
	return out
}
