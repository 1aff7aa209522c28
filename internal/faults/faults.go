// Package faults provides failpoints: named sites in the evaluation
// pipeline (relational mapping, workload translation, optimizer costing,
// statistics annotation, memo validation) and the serving path (block
// execution, document shredding, request dispatch) where tests can
// inject errors or panics to exercise the search's and the server's
// fault isolation.
//
// Production code never arms a site — the package is inert unless a test
// calls Enable, and the disarmed fast path is a single atomic load, so
// leaving the Inject calls compiled into release binaries costs nothing
// measurable. Sites can be armed to fail every hit or only the next N
// hits (transient faults, for convergence-under-recovery tests).
package faults

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Site names. Each constant marks one Inject call in the pipeline.
const (
	// SiteMap fires in relational.Mapper.Map / relational.MapWith,
	// before the schema is mapped to a catalog.
	SiteMap = "relational.map"
	// SiteTranslate fires in xquery.Translate / TranslateDeps, before a
	// query is translated to SQL.
	SiteTranslate = "xquery.translate"
	// SiteQueryCost fires in optimizer.QueryCost, before a translated
	// query is costed.
	SiteQueryCost = "optimizer.querycost"
	// SiteAnnotate fires in xstats.Annotate, before a schema is
	// annotated with statistics (once per search, before the initial
	// physical schema is built).
	SiteAnnotate = "xstats.annotate"
	// SiteMemo fires in the evaluator's incremental path; arming it makes
	// incremental evaluation report an inconsistent memo state, forcing
	// the graceful fallback to full evaluation.
	SiteMemo = "core.memo"
	// SiteExec fires in engine.Database execution before each SPJ block
	// runs — the serving path's executor seam. Hook mode doubles as a
	// deterministic way to make a served query slow or gated.
	SiteExec = "engine.exec"
	// SiteShred fires in shred.Shredder.Shred before a document is
	// shredded into the relational image.
	SiteShred = "shred.shred"
	// SiteServe fires in the legodbd request path after admission and
	// before dispatch; hook mode holds an admitted request in flight for
	// drain and saturation tests.
	SiteServe = "server.serve"
	// SiteMigrate fires in Store.MigrateTo before each table-group
	// rebuild and once more immediately before the cutover swap; arming
	// it aborts a live migration mid-flight, proving the old image stays
	// intact and serving.
	SiteMigrate = "store.migrate"
	// SiteSnapshot fires in fsio.WriteFileAtomic after the temp file is
	// written and fsynced but before it is renamed into place; arming it
	// simulates a crash mid-save, proving the canonical path never holds
	// a torn image.
	SiteSnapshot = "store.snapshot"
)

// ErrInjected is the error returned (wrapped) by error-mode failpoints.
var ErrInjected = errors.New("faults: injected fault")

// armed counts enabled sites; zero keeps Inject on its one-load fast
// path.
var armed atomic.Int32

type failure struct {
	panicMode bool
	hook      func()
	remaining int64 // < 0 = every hit
	hits      int64
}

var (
	mu    sync.Mutex
	sites map[string]*failure
)

// Enable arms a site to fail its next `times` hits (times < 0 = every
// hit until disabled): error-mode sites return ErrInjected from Inject,
// panic-mode sites panic. It returns a restore func that disarms the
// site; tests must call it (defer it) to leave the registry clean.
func Enable(site string, times int, panicMode bool) (restore func()) {
	mu.Lock()
	defer mu.Unlock()
	if sites == nil {
		sites = make(map[string]*failure)
	}
	if _, exists := sites[site]; !exists {
		armed.Add(1)
	}
	sites[site] = &failure{panicMode: panicMode, remaining: int64(times)}
	return func() { Disable(site) }
}

// EnableHook arms a site to run fn on each of its next `times` hits
// (times < 0 = every hit until disabled) instead of failing: Inject
// calls fn and returns nil. Hooks give tests and benchmarks a
// deterministic seam at pipeline sites — blocking a costing call on a
// channel instead of sleeping wall-clock time, or simulating the
// round-trip latency of an out-of-process cost oracle. fn runs on the
// injecting goroutine with no locks held, so it may block.
func EnableHook(site string, times int, fn func()) (restore func()) {
	mu.Lock()
	defer mu.Unlock()
	if sites == nil {
		sites = make(map[string]*failure)
	}
	if _, exists := sites[site]; !exists {
		armed.Add(1)
	}
	sites[site] = &failure{hook: fn, remaining: int64(times)}
	return func() { Disable(site) }
}

// Disable disarms a site (no-op when not armed).
func Disable(site string) {
	mu.Lock()
	defer mu.Unlock()
	if _, exists := sites[site]; exists {
		delete(sites, site)
		armed.Add(-1)
	}
}

// Hits reports how many times an armed site fired since Enable. Zero
// once the site is disabled.
func Hits(site string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if f := sites[site]; f != nil {
		return f.hits
	}
	return 0
}

// Inject fires the failure armed at a site: panic-mode sites panic,
// error-mode sites return an error wrapping ErrInjected. It returns nil
// when the site is disarmed or its transient budget is spent.
func Inject(site string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	f := sites[site]
	if f == nil || f.remaining == 0 {
		mu.Unlock()
		return nil
	}
	if f.remaining > 0 {
		f.remaining--
	}
	f.hits++
	panicMode := f.panicMode
	hook := f.hook
	mu.Unlock()
	if hook != nil {
		hook()
		return nil
	}
	if panicMode {
		panic(fmt.Sprintf("faults: injected panic at %s", site))
	}
	return fmt.Errorf("%w at %s", ErrInjected, site)
}
