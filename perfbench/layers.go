package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// layerInputs is what a traced run hands to layerMetrics.
type layerInputs struct {
	spans []span
	ph    *phaseResult
	c     *corpus
	// layer prefixes backend span names: "store", or "shard" over a
	// shard.Coordinator.
	layer                  string
	shed                   uint64
	status429, status5xx   int64
	untracedP50, tracedP50 float64
}

// interval is a half-open span of tracer time.
type interval struct{ start, end int64 }

// covered is the length of the union of ivs.
func covered(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total, curS, curE int64
	open := false
	for _, iv := range ivs {
		if !open || iv.start > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = iv.start, iv.end, true
			continue
		}
		curE = max(curE, iv.end)
	}
	if open {
		total += curE - curS
	}
	return total
}

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

// record gathers the spans of one uploaded image, joined by image ID.
type record struct {
	handler        *span
	add, kw, get   *span
	puts, features []span
}

// layerMetrics turns the traced phase's spans and counters into the
// per-layer metrics, and prints each layer's self time: a span's
// duration minus the time its child spans cover.
func layerMetrics(in layerInputs, out io.Writer) map[string]metric {
	L := in.layer + "."
	byName := map[string][]span{}
	for _, s := range in.spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	meanMs := func(ss []span) float64 {
		if len(ss) == 0 {
			return 0
		}
		var sum int64
		for _, s := range ss {
			sum += s.dur()
		}
		return nsToMs(sum) / float64(len(ss))
	}

	// Ingest spans join their request by image ID.
	recs := map[uint64]*record{}
	get := func(id uint64) *record {
		r := recs[id]
		if r == nil {
			r = &record{}
			recs[id] = r
		}
		return r
	}
	for i := range in.spans {
		s := &in.spans[i]
		if s.Image == 0 {
			continue
		}
		switch {
		case s.Name == "api.upload":
			get(s.Image).handler = s
		case s.Name == L+"add_image":
			get(s.Image).add = s
		case s.Name == L+"add_keywords":
			get(s.Image).kw = s
		case s.Name == L+"get_image":
			if r := get(s.Image); r.get == nil {
				r.get = s
			}
		case s.Name == L+"put_feature":
			get(s.Image).puts = append(get(s.Image).puts, *s)
		case strings.HasPrefix(s.Name, "feature."):
			get(s.Image).features = append(get(s.Image).features, *s)
		}
	}
	var persist, queueWait, extract []span
	var apiSelf, ingestSelf, analysisSelf int64
	for _, r := range recs {
		if r.add == nil {
			continue
		}
		p := span{Name: "ingest.persist", Start: r.add.Start, End: r.add.End}
		if r.kw != nil {
			p.End = max(p.End, r.kw.End)
		}
		persist = append(persist, p)
		ingestSelf += p.dur() - covered([]interval{{r.add.Start, r.add.End}, kwIv(r.kw)})
		if r.handler != nil {
			apiSelf += r.handler.dur() - p.dur()
		}
		if r.get == nil || len(r.puts) == 0 {
			continue
		}
		queueWait = append(queueWait, span{Start: r.add.End, End: r.get.Start})
		x := span{Name: "analysis.extract", Start: r.get.Start, End: r.get.End}
		ivs := []interval{{r.get.Start, r.get.End}}
		for _, s := range append(append([]span(nil), r.puts...), r.features...) {
			x.End = max(x.End, s.End)
			ivs = append(ivs, interval{s.Start, s.End})
		}
		extract = append(extract, x)
		analysisSelf += x.dur() - covered(ivs)
	}

	// Search handlers: children are the Search* spans that carried the
	// request's context.
	children := map[uint64][]span{}
	for _, s := range in.spans {
		if s.Parent != 0 && strings.HasPrefix(s.Name, L) {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var querySelf int64
	var calls, rows int
	var phaseHandlerNs int64
	for _, h := range append(append([]span(nil), byName["api.search"]...), byName["api.upload"]...) {
		if h.Start >= in.ph.start && h.End <= in.ph.end {
			phaseHandlerNs += h.dur()
		}
	}
	for _, h := range byName["api.search"] {
		ivs := []interval{}
		for _, ch := range children[h.ID] {
			ivs = append(ivs, interval{ch.Start, ch.End})
			if h.Start >= in.ph.start && h.End <= in.ph.end {
				calls++
				rows += ch.Rows
			}
		}
		querySelf += h.dur() - covered(ivs)
	}
	searches, results := 0, 0
	var rttNs int64
	var late []float64
	for i, s := range in.ph.samples {
		rttNs += int64(s.RoundTrip())
		late = append(late, msOf(s.Late()))
		if in.c.schedule[i].kind == opSearch {
			searches++
			results += len(in.ph.hits[i])
		}
	}
	ops := max(1, len(in.ph.samples))
	wireNs := rttNs - phaseHandlerNs
	apiSelf += wireNs

	var storeNs, featureNs int64
	writeMax := 0.0
	for _, s := range in.spans {
		switch {
		case strings.HasPrefix(s.Name, L):
			storeNs += s.dur()
			if n := strings.TrimPrefix(s.Name, L); n == "add_image" || n == "add_keywords" || n == "put_feature" {
				writeMax = max(writeMax, nsToMs(s.dur()))
			}
		case strings.HasPrefix(s.Name, "feature."):
			featureNs += s.dur()
		}
	}
	m0, m1 := in.ph.mem0, in.ph.mem1
	gcPauseNs := int64(m1.PauseTotalNs - m0.PauseTotalNs)

	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	c0, c1 := in.ph.cache0, in.ph.cache1
	hits := float64(c1.Hits - c0.Hits)
	lookups := hits + float64(c1.Misses-c0.Misses) + float64(c1.Shared-c0.Shared)
	bodyBytes := 0.0
	if ups := byName["api.upload"]; len(ups) > 0 {
		for _, s := range ups {
			bodyBytes += float64(s.Rows)
		}
		bodyBytes /= float64(len(ups))
	}
	e0, e1 := in.ph.eng0, in.ph.eng1
	m := map[string]metric{
		"api.upload.handler_ms":        {meanMs(byName["api.upload"]), "ms"},
		"api.upload.body_bytes":        {bodyBytes, "bytes"},
		"api.wire_ms":                  {nsToMs(wireNs) / float64(ops), "ms"},
		"api.search.handler_ms":        {meanMs(byName["api.search"]), "ms"},
		"api.status_429":               {float64(in.status429), "count"},
		"api.status_5xx":               {float64(in.status5xx), "count"},
		"ingest.persist_ms":            {meanMs(persist), "ms"},
		"ingest.queue_wait_ms":         {meanMs(queueWait), "ms"},
		"ingest.backlog_max":           {float64(in.ph.backlogMax), "count"},
		"ingest.shed":                  {float64(in.shed), "count"},
		"analysis.extract_ms":          {meanMs(extract), "ms"},
		"store.add_image_ms":           {meanMs(byName[L+"add_image"]), "ms"},
		"store.put_feature_ms":         {meanMs(byName[L+"put_feature"]), "ms"},
		"store.write_max_ms":           {writeMax, "ms"},
		"store.wal_ops_per_batch":      {ratio(float64(e1.walOps-e0.walOps), float64(e1.walBatches-e0.walBatches)), "ratio"},
		"store.flushes":                {float64(e1.flushes - e0.flushes), "count"},
		"store.compactions":            {float64(e1.compactions - e0.compactions), "count"},
		"store.segments":               {float64(e1.segments), "count"},
		"query.self_ms":                {ratio(nsToMs(querySelf), float64(len(byName["api.search"]))), "ms"},
		"query.store_calls_per_search": {ratio(float64(calls), float64(searches)), "ratio"},
		"query.candidates_per_result":  {ratio(float64(rows), float64(results)), "ratio"},
		"query.cache_hit_ratio":        {ratio(hits, lookups), "ratio"},
		"runtime.gc_pause_ms":          {nsToMs(gcPauseNs), "ms"},
		"runtime.gc_cycles":            {float64(m1.NumGC - m0.NumGC), "count"},
		"runtime.alloc_bytes_per_op":   {float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops), "bytes"},
		"loadgen.late_p99_ms":          {newDist(late).P(99), "ms"},
		"trace.overhead_pct":           {100 * ratio(in.tracedP50-in.untracedP50, in.untracedP50), "%"},
	}
	for _, k := range kinds {
		m["feature."+k+"_ms"] = metric{meanMs(byName["feature."+k]), "ms"}
	}
	for _, n := range []string{"search_visual", "search_hybrid", "search_scene", "search_nearest", "search_text", "search_time", "describe"} {
		m["store."+n+"_ms"] = metric{meanMs(byName[L+n]), "ms"}
	}

	// Self time per layer, per timed-phase request.
	type row struct {
		layer string
		ns    int64
	}
	table := []row{
		{"api (upload handler self + wire)", apiSelf},
		{"ingest (persist self)", ingestSelf},
		{"analysis (extract self)", analysisSelf},
		{"feature", featureNs},
		{"query (search handler self)", querySelf},
		{in.layer, storeNs},
		{"runtime (GC pause)", gcPauseNs},
	}
	var total int64
	for _, r := range table {
		total += r.ns
	}
	fmt.Fprintf(out, "self time by layer (traced phase + canaries, %d timed requests):\n", ops)
	for _, r := range table {
		fmt.Fprintf(out, "  %-34s %10.3f ms total %8.4f ms/request %6.1f%%\n",
			r.layer, nsToMs(r.ns), nsToMs(r.ns)/float64(ops), 100*ratio(float64(r.ns), float64(total)))
	}
	fmt.Fprintf(out, "  waiting: ingest queue %.3f ms mean over %d records\n", meanMs(queueWait), len(queueWait))
	for _, r := range table {
		name := strings.Fields(r.layer)[0]
		if name == "shard" {
			name = "store"
		}
		m["self."+name+"_ms"] = metric{nsToMs(r.ns) / float64(ops), "ms"}
	}
	printMetrics(out, "per-layer:", m)
	return m
}

func kwIv(s *span) interval {
	if s == nil {
		return interval{}
	}
	return interval{s.Start, s.End}
}

// writeSpans writes the traced run's spans, one JSON object per line,
// after the environment stamp.
func writeSpans(o options, spans []span) (err error) {
	path := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload.name, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(envStamp(o)); err != nil {
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}
