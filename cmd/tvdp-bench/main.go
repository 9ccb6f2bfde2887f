// Command tvdp-bench regenerates the paper's evaluation figures (§VII)
// and the DESIGN.md ablation studies as text tables.
//
// Usage:
//
//	tvdp-bench -fig all                 # Fig. 6, 7, 8 at harness scale
//	tvdp-bench -fig 6 -n 2000 -folds 10 # bigger corpus, paper's 10-fold CV
//	tvdp-bench -ablations               # A1..A7
//	tvdp-bench -fig all -scale paper    # paper-scale corpus (slow)
//	tvdp-bench -figure serving          # mixed read/write throughput,
//	                                    # baseline mutex vs concurrent path
//	tvdp-bench -figure readpath         # exact vs quantized vs cached
//	                                    # visual search + quantized recall
//	tvdp-bench -figure sharding         # scatter-gather scaling: mixed
//	                                    # workload at 1, 2, 4, 8 shards
//	tvdp-bench -figure persistence      # segment engine under paced load:
//	                                    # p99 and max single-op stall
//	tvdp-bench -figure ingest           # inline vs streaming ack latency
//	                                    # at paced load + recall parity
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/par"
)

func main() {
	var (
		fig       = flag.String("fig", "", "figure to regenerate: 6, 7, 8, or all")
		figure    = flag.String("figure", "", "alias for -fig; also accepts \"serving\" and \"readpath\"")
		ablations = flag.Bool("ablations", false, "run the A1..A7 ablation studies")
		n         = flag.Int("n", 0, "override corpus size")
		folds     = flag.Int("folds", 0, "cross-validation folds for Fig. 6 (0 = skip)")
		scaleName = flag.String("scale", "default", "corpus scale: smoke, default, or paper")
		seed      = flag.Int64("seed", 2, "experiment seed")
		workers   = flag.Int("workers", 0, "worker goroutines for parallel stages (0 = all CPUs); results are identical for any value")

		clients  = flag.Int("clients", 8, "serving/sharding: concurrent workload clients")
		readfrac = flag.Float64("readfrac", 0.5, "serving/sharding: fraction of ops that are reads")
		duration = flag.Duration("duration", 2*time.Second, "serving/sharding: measured window per mode")
		preload  = flag.Int("preload", 64, "serving/sharding: images preloaded before timing")
		sync     = flag.Bool("sync", true, "serving/sharding: fsync every write (SyncEveryWrite)")
		out      = flag.String("out", "", "serving/readpath/sharding: output JSON path (default BENCH_<figure>.json)")

		timingN       = flag.Int("timing-n", 0, "readpath: timing-store vector count (0 = default 20000)")
		timingQueries = flag.Int("timing-queries", 0, "readpath: timed queries per mode (0 = default 240)")

		rate = flag.Int("rate", 0, "persistence/ingest: paced total ops/sec across clients (0 = figure default; negative = unpaced saturating)")

		records = flag.Int("records", 0, "ingest: uploads per mode (0 = figure default)")
		bowK    = flag.Int("bow-vocab", 0, "ingest: SIFT-BoW vocabulary size (0 = figure default)")
	)
	flag.Parse()
	special := *figure == "serving" || *figure == "readpath" || *figure == "sharding" || *figure == "persistence" || *figure == "ingest"
	if *fig == "" && *figure != "" && !special {
		*fig = *figure
	}
	if *fig == "" && !*ablations && !special {
		flag.Usage()
		os.Exit(2)
	}
	log.SetFlags(0)

	if *figure == "serving" {
		path := *out
		if path == "" {
			path = "BENCH_serving.json"
		}
		runServing(*clients, *readfrac, *duration, *preload, *sync, *seed, path)
		return
	}
	if *figure == "readpath" {
		path := *out
		if path == "" {
			path = "BENCH_readpath.json"
		}
		runReadpath(*scaleName, *seed, *timingN, *timingQueries, path)
		return
	}
	if *figure == "sharding" {
		path := *out
		if path == "" {
			path = "BENCH_sharding.json"
		}
		// Sharding has its own workload defaults (big preload, no
		// per-write fsync); a shared flag only overrides the config when
		// the user set it explicitly.
		cfg := experiments.DefaultShardingConfig()
		cfg.Seed = *seed
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "clients":
				cfg.Clients = *clients
			case "readfrac":
				cfg.ReadFrac = *readfrac
			case "duration":
				cfg.Duration = *duration
			case "preload":
				cfg.Preload = *preload
			case "sync":
				cfg.Sync = *sync
			}
		})
		runSharding(cfg, path)
		return
	}
	if *figure == "persistence" {
		path := *out
		if path == "" {
			path = "BENCH_persistence.json"
		}
		// Like sharding, the persistence figure has its own defaults (big
		// preload, paced load); shared flags only override when set
		// explicitly.
		cfg := experiments.DefaultPersistenceConfig()
		cfg.Seed = *seed
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "clients":
				cfg.Clients = *clients
			case "readfrac":
				cfg.ReadFrac = *readfrac
			case "duration":
				cfg.Duration = *duration
			case "preload":
				cfg.Preload = *preload
			case "rate":
				cfg.TargetOps = *rate
				if *rate < 0 {
					cfg.TargetOps = 0 // unpaced: clients saturate
				}
			}
		})
		runPersistence(cfg, path)
		return
	}
	if *figure == "ingest" {
		path := *out
		if path == "" {
			path = "BENCH_ingest.json"
		}
		cfg := experiments.DefaultIngestConfig()
		cfg.Seed = *seed
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "clients":
				cfg.Clients = *clients
			case "records":
				cfg.Records = *records
			case "bow-vocab":
				cfg.BoWVocab = *bowK
			case "rate":
				cfg.TargetOps = *rate
				if *rate < 0 {
					cfg.TargetOps = 0 // unpaced: clients saturate
				}
			}
		})
		runIngest(cfg, path)
		return
	}

	if *workers > 0 {
		par.SetWorkers(*workers)
	}
	log.Printf("parallel stages: %d worker(s)", par.Workers())

	scale := experiments.DefaultScale()
	switch *scaleName {
	case "smoke":
		scale = experiments.SmokeScale()
	case "default":
	case "paper":
		scale = experiments.PaperScale()
		log.Printf("paper scale selected: N=%d, BoW vocab=%d — expect hours on one core", scale.N, scale.BoWVocab)
	default:
		log.Fatalf("unknown scale %q", *scaleName)
	}
	if *n > 0 {
		scale.N = *n
	}
	scale.Seed = *seed

	needCorpus := *fig == "6" || *fig == "7" || *fig == "all"
	var corpus *experiments.Corpus
	if needCorpus {
		log.Printf("building corpus: N=%d (seed %d)...", scale.N, scale.Seed)
		start := time.Now()
		var err error
		corpus, err = experiments.BuildCorpus(scale)
		if err != nil {
			log.Fatalf("building corpus: %v", err)
		}
		log.Printf("corpus ready in %s (features: colour, SIFT-BoW, CNN)", time.Since(start).Round(time.Millisecond))
	}

	if *fig == "6" || *fig == "all" {
		start := time.Now()
		r, err := experiments.RunFig6(corpus, *folds)
		if err != nil {
			log.Fatalf("fig 6: %v", err)
		}
		fmt.Println(r.Render())
		for _, kind := range experiments.FeatureNames {
			name, f1 := r.Best(kind)
			fmt.Printf("  best for %-12s %-14s F1=%.3f\n", kind, name, f1)
		}
		fmt.Printf("  (elapsed %s, %d worker(s))\n\n", time.Since(start).Round(time.Millisecond), par.Workers())
	}
	if *fig == "7" || *fig == "all" {
		start := time.Now()
		r, err := experiments.RunFig7(corpus)
		if err != nil {
			log.Fatalf("fig 7: %v", err)
		}
		fmt.Println(r.Render())
		best, worst := r.CNNBestWorst()
		fmt.Printf("  CNN best category: %s, worst: %s\n", best, worst)
		fmt.Printf("  (elapsed %s, %d worker(s))\n\n", time.Since(start).Round(time.Millisecond), par.Workers())
	}
	if *fig == "8" || *fig == "all" {
		start := time.Now()
		r := experiments.RunFig8(*seed, 50)
		fmt.Println(r.Render())
		fmt.Printf("  (elapsed %s, %d worker(s))\n\n", time.Since(start).Round(time.Millisecond), par.Workers())
	}

	if *ablations {
		runAblations(*seed)
	}
}

func runServing(clients int, readfrac float64, duration time.Duration, preload int, sync bool, seed int64, out string) {
	cfg := experiments.ServingConfig{
		Clients: clients, ReadFrac: readfrac, Duration: duration,
		Preload: preload, Sync: sync, Seed: seed,
	}
	log.Printf("serving bench: %d clients, %.0f%% reads, %s per mode, sync=%v",
		cfg.Clients, cfg.ReadFrac*100, cfg.Duration, cfg.Sync)
	r, err := experiments.RunServing(cfg)
	if err != nil {
		log.Fatalf("serving: %v", err)
	}
	fmt.Println(r.Render())
	if out != "" {
		if err := r.WriteJSON(out); err != nil {
			log.Fatalf("serving: writing %s: %v", out, err)
		}
		log.Printf("wrote %s", out)
	}
}

func runSharding(cfg experiments.ShardingConfig, out string) {
	log.Printf("sharding bench: counts %v, %d clients, %.0f%% reads, %s per count, preload %d, sync=%v",
		cfg.Counts, cfg.Clients, cfg.ReadFrac*100, cfg.Duration, cfg.Preload, cfg.Sync)
	r, err := experiments.RunSharding(cfg)
	if err != nil {
		log.Fatalf("sharding: %v", err)
	}
	fmt.Println(r.Render())
	if out != "" {
		if err := r.WriteJSON(out); err != nil {
			log.Fatalf("sharding: writing %s: %v", out, err)
		}
		log.Printf("wrote %s", out)
	}
}

func runPersistence(cfg experiments.PersistenceConfig, out string) {
	pace := "unpaced"
	if cfg.TargetOps > 0 {
		pace = fmt.Sprintf("%d ops/sec", cfg.TargetOps)
	}
	log.Printf("persistence bench: %d clients, %.0f%% reads, %s at %s, preload %d, flush at %d KiB",
		cfg.Clients, cfg.ReadFrac*100, cfg.Duration, pace, cfg.Preload, cfg.FlushThreshold>>10)
	r, err := experiments.RunPersistence(cfg)
	if err != nil {
		log.Fatalf("persistence: %v", err)
	}
	fmt.Println(r.Render())
	if out != "" {
		if err := r.WriteJSON(out); err != nil {
			log.Fatalf("persistence: writing %s: %v", out, err)
		}
		log.Printf("wrote %s", out)
	}
}

func runIngest(cfg experiments.IngestConfig, out string) {
	pace := "unpaced"
	if cfg.TargetOps > 0 {
		pace = fmt.Sprintf("%d uploads/sec", cfg.TargetOps)
	}
	log.Printf("ingest bench: %d clients, %d records per mode at %s, BoW vocab %d, %d recall probes @%d",
		cfg.Clients, cfg.Records, pace, cfg.BoWVocab, cfg.Queries, cfg.K)
	r, err := experiments.RunIngest(cfg)
	if err != nil {
		log.Fatalf("ingest: %v", err)
	}
	fmt.Println(r.Render())
	if out != "" {
		if err := r.WriteJSON(out); err != nil {
			log.Fatalf("ingest: writing %s: %v", out, err)
		}
		log.Printf("wrote %s", out)
	}
}

func runReadpath(scaleName string, seed int64, timingN, timingQueries int, out string) {
	cfg := experiments.DefaultReadpathConfig()
	switch scaleName {
	case "smoke":
		cfg.Scale = experiments.SmokeScale()
	case "default", "":
		cfg.Scale = experiments.DefaultScale()
	case "paper":
		cfg.Scale = experiments.PaperScale()
	default:
		log.Fatalf("unknown scale %q", scaleName)
	}
	cfg.Seed = seed
	cfg.Scale.Seed = seed
	if timingN > 0 {
		cfg.TimingN = timingN
	}
	if timingQueries > 0 {
		cfg.TimingQueries = timingQueries
	}
	log.Printf("readpath bench: quality corpus N=%d, timing store N=%d, top-%d (seed %d)",
		cfg.Scale.N, cfg.TimingN, cfg.K, cfg.Seed)
	r, err := experiments.RunReadpath(cfg)
	if err != nil {
		log.Fatalf("readpath: %v", err)
	}
	fmt.Println(r.Render())
	if out != "" {
		if err := r.WriteJSON(out); err != nil {
			log.Fatalf("readpath: writing %s: %v", out, err)
		}
		log.Printf("wrote %s", out)
	}
}

func runAblations(seed int64) {
	if r, err := experiments.RunA1SpatialIndexes(20000, 200, seed); err != nil {
		log.Fatalf("A1: %v", err)
	} else {
		fmt.Println(r.Render())
	}
	if r, err := experiments.RunA2LSHvsExact(20000, 32, 10, 100, seed); err != nil {
		log.Fatalf("A2: %v", err)
	} else {
		fmt.Println(r.Render())
	}
	if r, err := experiments.RunA3Hybrid(3000, 50, seed); err != nil {
		log.Fatalf("A3: %v", err)
	} else {
		fmt.Println(r.Render())
	}
	if r, err := experiments.RunA4Crowd(seed); err != nil {
		log.Fatalf("A4: %v", err)
	} else {
		fmt.Println(r.Render())
	}
	if r, err := experiments.RunA5EdgeSelection(seed); err != nil {
		log.Fatalf("A5: %v", err)
	} else {
		fmt.Println(r.Render())
	}
	dir, err := os.MkdirTemp("", "tvdp-a6-*")
	if err != nil {
		log.Fatalf("A6: %v", err)
	}
	defer os.RemoveAll(dir)
	if r, err := experiments.RunA6Store(dir, 1000, seed); err != nil {
		log.Fatalf("A6: %v", err)
	} else {
		fmt.Println(r.Render())
	}
	if r, err := experiments.RunA7Text(50000, 500, seed); err != nil {
		log.Fatalf("A7: %v", err)
	} else {
		fmt.Println(r.Render())
	}
	if r, err := experiments.RunA8Augmentation(300, seed); err != nil {
		log.Fatalf("A8: %v", err)
	} else {
		fmt.Println(r.Render())
	}
}
