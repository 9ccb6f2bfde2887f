package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/query"
	"repro/internal/store"
)

// phaseResult is what one timed phase observed.
type phaseResult struct {
	samples []sample
	ids     []uint64          // per scheduled op: the upload's assigned ID
	hits    [][]api.SearchHit // per scheduled op: the search's results
	// start and end bound the phase on the tracer's clock.
	start, end int64
	backlogMax uint64
	mem0, mem1 runtime.MemStats
	eng0, eng1 engineCounts
	cache0     query.CacheStats
	cache1     query.CacheStats
}

// engineCounts are the persistence counters the benchmark can read from
// outside. A single store reports them itself. A shard.Coordinator hides
// its stores, so for it they are counted from the shard directories'
// files while the phase runs: every flush opens a new WAL generation,
// and every compaction install removes segments.
type engineCounts struct {
	flushes, compactions, segments uint64
	walOps, walBatches             uint64
	// Shard directories only: WAL files seen, and segments per shard at
	// the last scan.
	walFiles map[string]bool
	segs     map[string]int
}

func (e *env) engineCounts() engineCounts {
	if s, ok := e.raw.(*store.Store); ok {
		es, ws := s.EngineStats(), s.WALStats()
		return engineCounts{flushes: es.Flushes, compactions: es.Compactions, segments: uint64(es.Segments),
			walOps: ws.Ops, walBatches: ws.Batches}
	}
	c := engineCounts{walFiles: map[string]bool{}, segs: map[string]int{}}
	e.scanFiles(&c)
	c.flushes, c.compactions = 0, 0
	return c
}

// scanFiles updates c from the shard directories: new WAL files count as
// flushes, a drop in a shard's segment count as a compaction.
func (e *env) scanFiles(c *engineCounts) {
	dirs, _ := filepath.Glob(filepath.Join(e.dir, "shard-*"))
	c.segments = 0
	for _, d := range dirs {
		wals, _ := filepath.Glob(filepath.Join(d, "wal-*"))
		for _, w := range wals {
			if !c.walFiles[w] {
				c.walFiles[w] = true
				c.flushes++
			}
		}
		segs, _ := filepath.Glob(filepath.Join(d, "seg-*"))
		if prev, ok := c.segs[d]; ok && len(segs) < prev {
			c.compactions++
		}
		c.segs[d] = len(segs)
		c.segments += uint64(len(segs))
	}
}

// phase runs the workload's schedule open loop against the server.
func (e *env) phase(ctx context.Context) (*phaseResult, error) {
	c := e.c
	n := len(c.schedule)
	rate := e.o.workload.uploadRate + e.o.workload.searchRate
	interval := time.Duration(float64(time.Second) / rate)
	ph := &phaseResult{ids: make([]uint64, n), hits: make([][]api.SearchHit, n)}
	runtime.GC()
	runtime.ReadMemStats(&ph.mem0)
	ph.eng0 = e.engineCounts()
	ph.cache0 = e.server.Query.Stats()

	// A sampler records the ingest backlog (and, over shards, the files
	// that appear) while the phase runs.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	files := e.engineCounts()
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			st := e.pipe.Stats()
			if b := st.Persisted - st.Extracted - st.Failed; b > ph.backlogMax && st.Persisted >= st.Extracted+st.Failed {
				ph.backlogMax = b
			}
			if e.o.workload.shards > 1 && i%20 == 0 {
				e.scanFiles(&files)
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()

	ph.start = e.tr.now()
	start := time.Now().Add(10 * time.Millisecond)
	ph.samples = runOpenLoop(start, n, interval, senders, func(i int) error {
		op := c.schedule[i]
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		if op.kind == opUpload {
			resp, err := e.client.UploadImageAsyncCtx(rctx, c.uploads[op.index])
			ph.ids[i] = resp.ID
			return err
		}
		resp, err := e.client.SearchCtx(rctx, c.params[op.index].req)
		ph.hits[i] = resp.Results
		return err
	})
	ph.end = e.tr.now()
	dctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	err := e.pipe.Drain(dctx)
	cancel()
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("draining ingest: %w", err)
	}
	e.quiesce()
	runtime.GC()
	runtime.ReadMemStats(&ph.mem1)
	ph.eng1 = e.engineCounts()
	if e.o.workload.shards > 1 {
		e.scanFiles(&files)
		ph.eng1 = files
	}
	ph.cache1 = e.server.Query.Stats()
	return ph, nil
}

// quiesce waits, up to a minute, until no compaction can be running:
// every store directory holds fewer segments than the compaction
// trigger, or its segment files have not changed for three seconds.
func (e *env) quiesce() {
	dirs := []string{e.dir}
	if e.o.workload.shards > 1 {
		dirs, _ = filepath.Glob(filepath.Join(e.dir, "shard-*"))
	}
	var last string
	stable := time.Now()
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		busy := false
		var sig strings.Builder
		for _, d := range dirs {
			segs, _ := filepath.Glob(filepath.Join(d, "seg-*"))
			busy = busy || len(segs) >= store.DefaultCompactSegments
			for _, p := range segs {
				if info, err := os.Stat(p); err == nil {
					fmt.Fprintf(&sig, "%s:%d ", p, info.Size())
				}
			}
		}
		if !busy {
			return
		}
		if sig.String() != last {
			last, stable = sig.String(), time.Now()
		} else if time.Since(stable) > 3*time.Second {
			return
		}
	}
}

// latencies splits the phase's samples by kind, in milliseconds. A failed
// request counts as missing every latency limit (+Inf).
func (ph *phaseResult) latencies(c *corpus) (all, uploads, searches []float64) {
	for i, s := range ph.samples {
		v := msOf(s.Latency())
		if s.Err != nil {
			v = math.Inf(1)
		}
		all = append(all, v)
		if c.schedule[i].kind == opUpload {
			uploads = append(uploads, v)
		} else {
			searches = append(searches, v)
		}
	}
	return all, uploads, searches
}

// run sets the platform up o.setups times, runs the timed phase on the
// last set-up (in a traced run, an untraced phase on the one before it
// first), checks every answer, and collects the metrics.
func run(ctx context.Context, o options, out io.Writer) (*result, error) {
	printStamp(out, o)
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	res := &result{correct: true, trace: o.trace}
	var setupS []float64
	var untracedP50 float64
	var e *env
	defer func() {
		if e != nil {
			_ = e.close() // error paths only; the success path closes below
		}
	}()
	for i := 0; i < o.setups; i++ {
		t0 := time.Now()
		ei, err := setup(ctx, o, i)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		fmt.Fprintf(out, "setup %d: %.3f s\n", i+1, setupS[i])
		if ei.before != nil {
			after, err := answers(ctx, ei.raw, ei.c)
			if err == nil {
				err = ei.before.diff(after)
			}
			if err != nil {
				res.correct = false
				fmt.Fprintf(out, "CHECK FAILED: recovery after set-up %d: %v\n", i+1, err)
			}
		}
		switch {
		case i == o.setups-1:
			e = ei
		case o.trace && i == o.setups-2:
			ph, err := ei.phase(ctx)
			if err != nil {
				return nil, errors.Join(err, ei.close())
			}
			all, _, _ := ph.latencies(ei.c)
			untracedP50 = windowed(all, 50)
			if err := ei.close(); err != nil {
				return nil, err
			}
		default:
			if err := ei.close(); err != nil {
				return nil, err
			}
		}
	}

	e.tr.on.Store(o.trace)
	ph, err := e.phase(ctx)
	if err != nil {
		return nil, err
	}
	heapMB := float64(ph.mem1.HeapAlloc) / (1 << 20)
	res.attempted = len(ph.samples)
	c := e.c
	lin := layerInputs{ph: ph, c: c, layer: e.backend.layer, shed: e.pipe.Stats().Shed,
		status429: e.tr.status429.Load(), status5xx: e.tr.status5xx.Load()}

	// Requests that failed outright.
	var acked []uint64
	for i, s := range ph.samples {
		if s.Err != nil {
			res.failed++
			var ae *api.APIError
			if errors.As(s.Err, &ae) && ae.Status >= 500 {
				res.correct = false
			}
			if res.failed <= 5 {
				fmt.Fprintf(out, "request %d failed: %v\n", i, s.Err)
			}
			continue
		}
		if e.c.schedule[i].kind == opUpload {
			acked = append(acked, ph.ids[i])
		}
	}

	// Wrong answers.
	k, err := newChecker(e.raw, e.o.workload.uploadRate == 0)
	if err != nil {
		return nil, err
	}
	for i, s := range ph.samples {
		if s.Err == nil && e.c.schedule[i].kind == opSearch {
			if !k.search(e.c.params[e.c.schedule[i].index], ph.hits[i]) {
				res.failed++
			}
		}
	}
	k.uploads(acked, len(e.c.preload))
	// visible[i] is request i's ack → searchable time; NaN for searches
	// and failed uploads.
	visible := make([]float64, len(ph.samples))
	for i, s := range ph.samples {
		visible[i] = math.NaN()
		if s.Err == nil && c.schedule[i].kind == opUpload {
			if at, ok := e.tr.visibleAt(ph.ids[i]); ok {
				visible[i] = math.Max(0, msOf(at.Sub(s.Done)))
			}
		}
	}

	// Canaries: single uploads found again through every modality.
	var canaryVis []float64
	for i := range e.c.canary {
		d, err := e.canary(ctx, k, i)
		if err != nil {
			k.fail("%v", err)
			continue
		}
		canaryVis = append(canaryVis, math.Max(0, msOf(d)))
	}
	spans := e.tr.snapshot()
	e.tr.on.Store(false)
	ctxRecall, cancel := context.WithTimeout(ctx, time.Minute)
	rec, err := recall(ctxRecall, e.raw, e.c.probes)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("recall probes: %w", err)
	}

	// Restart: close and reopen a few times, time each reopen, and check
	// that nothing acked was lost.
	if err := e.stopServing(); err != nil {
		return nil, err
	}
	e.quiesce()
	// Drop every reference to the store being closed, so the heap
	// measured after each reopen is the reopened store's.
	e.backend, e.server, k.st = nil, nil, nil
	var disk float64
	var recoveryS, heaps []float64
	rows := e.raw.NumImages()
	before, err := answers(ctx, e.raw, c)
	if err != nil {
		return nil, err
	}
	for r := 0; r < reopens; r++ {
		err = e.raw.Close()
		e.raw = nil
		if err != nil {
			return nil, fmt.Errorf("closing store: %w", err)
		}
		if r == 0 {
			size, err := dirBytes(e.dir)
			if err != nil {
				return nil, err
			}
			disk = float64(size) / float64(int64(rows)*e.rowBytes)
		}
		// The heap is measured as the growth over the live heap with the
		// store closed, so the load generator's own memory (corpus,
		// requests, answers, spans) is not counted.
		var base, ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&base)
		t0 := time.Now()
		st, err := openBackend(e.o, e.dir)
		if err != nil {
			return nil, fmt.Errorf("reopening after the run: %w", err)
		}
		recoveryS = append(recoveryS, time.Since(t0).Seconds())
		e.raw = st
		runtime.GC()
		runtime.ReadMemStats(&ms)
		heaps = append(heaps, (float64(ms.HeapAlloc)-float64(base.HeapAlloc))/(1<<20))
		after, err := answers(ctx, st, e.c)
		if err == nil {
			err = before.diff(after)
		}
		if err != nil {
			k.fail("recovery after the run: %v", err)
		}
	}
	if k.failed > 0 {
		res.correct = false
		for _, n := range k.notes {
			fmt.Fprintf(out, "CHECK FAILED: %s\n", n)
		}
		fmt.Fprintf(out, "CHECK FAILED: %d wrong answers in total\n", k.failed)
	}
	if err := e.close(); err != nil {
		return nil, err
	}
	e = nil

	all, ups, srs := ph.latencies(c)
	dAll, dUp, dSr := newDist(all), newDist(ups), newDist(srs)
	var visAll []float64
	for _, v := range visible {
		if !math.IsNaN(v) {
			visAll = append(visAll, v)
		}
	}
	dVis := newDist(visAll)
	visP50 := windowed(visible, 50)
	if len(visAll) == 0 {
		visP50 = median(canaryVis)
	}
	report := map[string]metric{
		"setup_s":                  {median(setupS), "s"},
		"latency_p50_ms":           {windowed(all, 50), "ms"},
		"latency_p90_ms":           {windowed(all, 90), "ms"},
		"visible_p50_ms":           {visP50, "ms"},
		"recovery_s":               {median(recoveryS), "s"},
		"disk_bytes_per_user_byte": {disk, "ratio"},
		"heap_mb":                  {median(heaps), "MiB"},
		"heap_phase_mb":            {heapMB, "MiB"},
		"recall_at_10":             {rec, "ratio"},
		"failed_ratio":             {float64(res.failed) / float64(max(1, res.attempted)), "ratio"},
	}
	// A p99 is reported only where at least ten samples lie beyond it;
	// the tails line gives the highest percentile that has, with n.
	p99 := func(name string, d dist) {
		if q, ok := tailPercentile(len(d.vals)); ok && q >= 99 {
			report[name] = metric{d.P(99), "ms"}
		}
	}
	if len(ups) > 0 {
		report["upload_ack_p50_ms"] = metric{dUp.P(50), "ms"}
		p99("upload_ack_p99_ms", dUp)
		p99("visible_p99_ms", dVis)
	}
	if len(srs) > 0 {
		report["search_p50_ms"] = metric{dSr.P(50), "ms"}
		p99("search_p99_ms", dSr)
	}
	printMetrics(out, "end-to-end:", report)
	fmt.Fprintf(out, "tails: all %s | upload ack %s | search %s | visible %s | canary visible %s\n",
		dAll.Tail(), dUp.Tail(), dSr.Tail(), dVis.Tail(), newDist(canaryVis).Tail())
	res.endToEnd = map[string]metric{}
	for _, n := range endToEndNames {
		res.endToEnd[n] = report[n]
	}
	if o.trace {
		lin.spans, lin.untracedP50, lin.tracedP50 = spans, untracedP50, report["latency_p50_ms"].Value
		res.layers = layerMetrics(lin, out)
		if err := writeSpans(o, spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}
