package main

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// gate orders maintenance against ops: every op holds it shared,
// maintenance (snapshot cycles, serve-write's restarts) holds it
// exclusively, so maintenance runs between ops with every client
// waiting, as legodbd's drain does. The wall and CPU time maintenance
// holds the gate are not loop time.
type gate struct {
	mu        sync.RWMutex
	wall, cpu time.Duration
}

func (g *gate) shared(f func() (time.Duration, error)) (time.Duration, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return f()
}

func (g *gate) exclusive(f func() error) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	cpu0, start := cpuTime(), time.Now()
	err := f()
	g.wall += time.Since(start)
	g.cpu += cpuTime() - cpu0
	return err
}

// maintenance is work done between ops during a timed loop: run is
// called, with the gate held exclusively, whenever due reports true
// (polled every 5 ms). Spreading snapshot cycles over the whole loop,
// instead of timing them in a burst after it, exposes them to the same
// host conditions as the ops.
type maintenance struct {
	due func() bool
	run func() error
}

// closedLoop runs one goroutine per client; each issues its next op only
// after the previous one returned, until the deadline passes or (in
// smoke mode) maxOps ops are done. It returns each client's latencies
// in ms, and the loop's wall and process CPU time less the time spent in
// maintenance. The loop starts from a collected heap with free memory
// returned to the OS, so garbage and scavenging left by set-up do not
// land in it.
func closedLoop(clients int, d time.Duration, maxOps int, rep *report, g *gate, m *maintenance, op func(client, i int) (time.Duration, error)) ([]latencies, time.Duration, time.Duration) {
	lat := make([]latencies, clients)
	var wg sync.WaitGroup
	startGate := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-startGate
			deadline := time.Now().Add(d)
			for i := 0; maxOps == 0 || i < maxOps; i++ {
				if maxOps == 0 && !time.Now().Before(deadline) {
					return
				}
				el, err := g.shared(func() (time.Duration, error) { return op(c, i) })
				rep.count(err)
				if err == nil {
					lat[c] = append(lat[c], float64(el)/1e6)
				}
			}
		}(c)
	}
	debug.FreeOSMemory()
	rss := sampleRSS()
	pauseWall, pauseCPU := g.wall, g.cpu
	cpu0, start := cpuTime(), time.Now()
	close(startGate)
	stop := make(chan struct{})
	var maint sync.WaitGroup
	if m != nil {
		maint.Add(1)
		go func() {
			defer maint.Done()
			t := time.NewTicker(5 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
				}
				if m.due() {
					if err := g.exclusive(m.run); err != nil {
						rep.count(fmt.Errorf("maintenance: %w", err))
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	maint.Wait()
	wall := time.Since(start) - (g.wall - pauseWall)
	cpu := cpuTime() - cpu0 - (g.cpu - pauseCPU)
	rep.loopRSS = append(rep.loopRSS, rss.finish()...)
	return lat, wall, cpu
}

// opStats records the end-to-end op metrics from one op kind's samples.
func opStats(rep *report, lat latencies, tailQ float64, wall, cpu time.Duration) {
	s := lat.sorted()
	if len(s) == 0 {
		rep.problem("no op completed")
		return
	}
	rep.setE2E("op_p50_ms", quantile(s, 0.5), fmt.Sprintf("n=%d", len(s)))
	tail, beyond := lat.tail(tailQ)
	rep.setE2E("op_tail_ms", tail, fmt.Sprintf("p%g, n=%d, %d beyond", 100*tailQ, len(s), beyond))
	if beyond < 10 {
		rep.warn("op_tail_ms: only %d samples beyond p%g", beyond, 100*tailQ)
	}
	rep.setE2E("ops_per_s", float64(len(s))/wall.Seconds(), fmt.Sprintf("%d ops in %.2fs of loop", len(s), wall.Seconds()))
	rep.setE2E("cpu_ms_per_op", float64(cpu)/1e6/float64(len(s)), fmt.Sprintf("process CPU %.2fs", cpu.Seconds()))
}
