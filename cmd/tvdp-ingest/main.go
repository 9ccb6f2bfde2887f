// Command tvdp-ingest bulk-loads a synthetic street-scene corpus into a
// durable TVDP store directory, optionally with ground-truth labels —
// the batch equivalent of the LASAN garbage-truck collection runs (§II).
//
// Usage:
//
//	tvdp-ingest -dir ./data -n 1000 -label
//	tvdp-ingest -dir ./data -n 1000 -stream -ingest-workers 4
//
// Two ingest modes share the platform's staged pipeline:
//
//   - default (sync): each record is persisted, extracted, and indexed
//     before the next one starts — the legacy inline path, now routed
//     through ingest.SubmitSync so its semantics match the REST tier.
//   - -stream: records are acked as soon as they are WAL-durable and
//     extraction/indexing runs on partitioned pipeline workers. When a
//     partition's queue fills, admission sheds and this command backs
//     off and resubmits — the CLI face of the API's 429 contract.
//
// -refresh-every N flushes the store's memtable off-path after every N
// extractions, the maintenance hook the paper's retraining loop plugs
// into.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"sync/atomic"
	"time"

	tvdp "repro"
	"repro/internal/ingest"
	"repro/internal/par"
	"repro/internal/synth"
)

func main() {
	ctx := context.Background()
	var (
		dir      = flag.String("dir", "", "store directory (required)")
		n        = flag.Int("n", 500, "number of images to generate")
		seed     = flag.Int64("seed", 1, "generator seed")
		label    = flag.Bool("label", true, "attach ground-truth cleanliness labels")
		workers  = flag.Int("workers", 0, "worker goroutines for corpus rendering (0 = all CPUs); output is identical for any value")
		stream   = flag.Bool("stream", false, "ack at WAL commit and extract on pipeline workers (default: inline sync)")
		ingWork  = flag.Int("ingest-workers", 0, "streaming pipeline partitions (0 = default)")
		ingQueue = flag.Int("ingest-queue", 0, "per-partition queue depth before admission sheds (0 = default)")
		refresh  = flag.Int("refresh-every", 0, "flush the store's memtable off-path after every N extractions (0 disables)")
	)
	flag.Parse()
	log.SetFlags(0)
	if *dir == "" {
		log.Fatal("-dir is required")
	}
	if *workers > 0 {
		par.SetWorkers(*workers)
	}
	log.Printf("rendering with %d worker(s)", par.Workers())
	cfg := tvdp.Config{
		Dir:           *dir,
		IngestWorkers: *ingWork,
		IngestQueue:   *ingQueue,
	}
	// The refresh hook needs the platform, which Open hasn't returned yet
	// when the config is built; it fires only after extractions complete,
	// but the pointer still crosses goroutines, hence the atomic.
	var plat atomic.Pointer[tvdp.Platform]
	if *refresh > 0 {
		cfg.IngestRefreshEvery = *refresh
		cfg.OnIngestRefresh = func(context.Context) error {
			p := plat.Load()
			if p == nil {
				return nil
			}
			return p.Store.Snapshot()
		}
	}
	p, err := tvdp.Open(cfg)
	if err != nil {
		log.Fatalf("opening platform: %v", err)
	}
	plat.Store(p)
	defer p.Close()

	if *label {
		if _, err := p.CreateClassification("street_cleanliness", synth.ClassNames[:]); err != nil {
			// Re-running against an existing store is fine.
			log.Printf("classification: %v (continuing)", err)
		}
	}
	g, err := synth.NewGenerator(synth.DefaultConfig(*n, *seed))
	if err != nil {
		log.Fatalf("generator: %v", err)
	}
	start := time.Now()
	var shed int
	for i, rec := range g.Generate(*n) {
		id, err := submit(ctx, p, rec, *stream, &shed)
		if err != nil {
			log.Fatalf("ingesting record %d: %v", i, err)
		}
		if *label {
			// The ack point guarantees the row is durable, so labelling
			// against the ID is safe even while extraction is still queued.
			if err := p.AnnotateHuman(id, "street_cleanliness", int(rec.Class), rec.CapturedAt); err != nil {
				log.Fatalf("labelling record %d: %v", i, err)
			}
		}
		if (i+1)%500 == 0 {
			log.Printf("ingested %d/%d", i+1, *n)
		}
	}
	if *stream {
		// Let the pipeline finish extraction/indexing before the snapshot.
		if err := p.Pipeline.Drain(ctx); err != nil {
			log.Fatalf("draining pipeline: %v", err)
		}
		if shed > 0 {
			log.Printf("backpressure: %d submissions shed and resubmitted", shed)
		}
	}
	if err := p.Store.Snapshot(); err != nil {
		log.Fatalf("snapshot: %v", err)
	}
	log.Printf("done: %d images into %s in %s (snapshot written)",
		*n, *dir, time.Since(start).Round(time.Millisecond))
}

// submit routes one record through the pipeline. In stream mode a shed
// (ErrBusy: queue full, nothing persisted) backs off and resubmits —
// at-least-once with no duplicates, because a shed record never reached
// the WAL.
func submit(ctx context.Context, p *tvdp.Platform, rec synth.Record, stream bool, shed *int) (uint64, error) {
	if !stream {
		return p.IngestRecord(ctx, rec)
	}
	for {
		id, err := p.IngestRecordAsync(ctx, rec)
		if !errors.Is(err, ingest.ErrBusy) {
			return id, err
		}
		*shed++
		time.Sleep(2 * time.Millisecond)
	}
}
