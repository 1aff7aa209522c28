// Command experiments regenerates the paper's evaluation artifacts: each
// subcommand prints the same rows or series as one table or figure of
// Section 5 (see DESIGN.md for the per-experiment index).
//
// Usage:
//
//	experiments           # run everything
//	experiments fig6 tab2 # run selected experiments
//	experiments -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"legodb/internal/experiments"
)

// Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 the
// -timeout deadline expired (or the run was interrupted) before every
// requested experiment finished.
const (
	exitOK       = 0
	exitRuntime  = 1
	exitUsage    = 2
	exitDeadline = 3
)

func main() {
	// run carries the exit code out so deferred cleanups (profile and
	// cache-file writers) execute before os.Exit.
	os.Exit(run())
}

func run() int {
	list := flag.Bool("list", false, "list experiment ids and exit")
	format := flag.String("format", "text", "output format: text, csv, markdown")
	maxiter := flag.Int("maxiter", 0, "bound search iterations per experiment (0 = until convergence); for smoke runs")
	workers := flag.Int("workers", 0, "bound the candidate-evaluation worker pool per search (0 = GOMAXPROCS, 1 = sequential); results are byte-identical at any bound")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none); expired searches report their anytime best-so-far")
	cachestats := flag.Bool("cachestats", false, "print cost-cache hit/miss counters to stderr after each experiment")
	registry := flag.Bool("registry", false, "route costings through a cross-engine cache registry (fleet mode) and print fleet-wide counters after the run; results are identical either way")
	cachefile := flag.String("cachefile", "", "cost-cache snapshot file: loaded before the runs, saved back after; a corrupt file is quarantined and the runs continue cold")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if *list {
		fmt.Println(strings.Join(experiments.Names(), "\n"))
		return exitOK
	}
	switch *format {
	case "text", "csv", "markdown":
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown -format %q (want text, csv, or markdown)\n", *format)
		return exitUsage
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	experiments.SetWorkers(*workers)
	experiments.EnableRegistry(*registry)
	experiments.MaxIterations = *maxiter
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
			return exitRuntime
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
			return exitRuntime
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -memprofile: %v\n", err)
			}
		}()
	}
	if *cachefile != "" {
		// A load failure is never fatal: a corrupt snapshot has been
		// quarantined (warning), and any other failure just means the
		// runs start with a cold cache.
		n, warning, err := experiments.LoadCacheFile(*cachefile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: warning: -cachefile %s: %v (continuing with a cold cache)\n", *cachefile, err)
		} else if warning != "" {
			fmt.Fprintf(os.Stderr, "experiments: warning: %s\n", warning)
		} else if *cachestats && n > 0 {
			fmt.Fprintf(os.Stderr, "experiments: loaded %d cached costs from %s\n", n, *cachefile)
		}
		defer func() {
			if err := experiments.SaveCacheFile(*cachefile); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -cachefile: %v\n", err)
			}
		}()
	}
	names := flag.Args()
	if len(names) == 0 {
		names = experiments.Names()
	}
	failed := false
	expired := false
	for _, name := range names {
		experiments.AttachEngine()
		before := experiments.CacheStats()
		beforeBlocks := experiments.PlanStats()
		tbl, err := experiments.RunContext(ctx, name)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "experiments: %s: stopped early: %v\n", name, err)
				expired = true
				continue
			}
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			failed = true
			continue
		}
		if ctx.Err() != nil {
			// The experiment finished on anytime best-so-far results;
			// flag the truncation but still print what it produced.
			expired = true
		}
		if *cachestats {
			st := experiments.CacheStats().Sub(before)
			fmt.Fprintf(os.Stderr, "experiments: %s: cache %d hits, %d misses (%.0f%% hit rate), %d entries total\n",
				name, st.Hits, st.Misses, hitRate(st.Hits, st.Misses), st.Entries)
			bs := experiments.PlanStats().Sub(beforeBlocks)
			fmt.Fprintf(os.Stderr, "experiments: %s: blocks %d shared, %d costed (%.0f%% share rate), %d entries total\n",
				name, bs.Hits, bs.Misses, hitRate(bs.Hits, bs.Misses), bs.Entries)
		}
		switch *format {
		case "csv":
			fmt.Print(tbl.CSV())
			fmt.Println()
		case "markdown":
			fmt.Println(tbl.Markdown())
		default:
			fmt.Println(tbl)
		}
	}
	if *registry {
		rs := experiments.RegistryStats()
		fmt.Fprintf(os.Stderr, "experiments: registry: %d engines, %d hits, %d misses (%.0f%% hit rate), %d dedups, %d evictions, %d entries\n",
			rs.Engines, rs.Cache.Hits, rs.Cache.Misses, hitRate(rs.Cache.Hits, rs.Cache.Misses),
			rs.Cache.Dedups, rs.Cache.Evictions, rs.Cache.Entries)
	}
	if failed {
		return exitRuntime
	}
	if expired {
		fmt.Fprintf(os.Stderr, "experiments: run truncated by -timeout %s or interrupt; results above are anytime best-so-far\n",
			timeoutString(*timeout))
		return exitDeadline
	}
	return exitOK
}

func timeoutString(d time.Duration) string {
	if d <= 0 {
		return "(none)"
	}
	return d.String()
}

func hitRate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
}
