package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"legodb"
)

// The traced run cannot place spans inside the server, so it replays
// each request through the same public layer calls the handler makes,
// in the same order, with a span around each: decode the body, prepare,
// run, encode. The untraced handler latency minus the untraced replay
// latency is what the server itself adds (routing, admission, response
// writing).

// wireRequest is the body of legodbd's /query, /insert and /delete.
type wireRequest struct {
	Query    string            `json:"query"`
	Params   map[string]string `json:"params,omitempty"`
	Fragment string            `json:"fragment,omitempty"`
}

type wireResult struct {
	Columns   []string   `json:"columns"`
	Rows      [][]string `json:"rows"`
	ElapsedMs float64    `json:"elapsed_ms"`
}

// requestTimeout is legodbd's default per-request deadline.
const requestTimeout = 5 * time.Second

func decodeRequest(body []byte, rec *recorder, parent int) (wireRequest, error) {
	sp := rec.begin("server.decode", parent)
	defer rec.end(sp)
	var req wireRequest
	err := json.Unmarshal(body, &req)
	return req, err
}

func encodeResponse(out *bytes.Buffer, v any, rec *recorder, parent int) error {
	sp := rec.begin("server.encode", parent)
	defer rec.end(sp)
	out.Reset()
	return json.NewEncoder(out).Encode(v)
}

// replayQuery is one /query request; it returns the rows returned.
func replayQuery(ctx context.Context, store *legodb.Store, body []byte, out *bytes.Buffer, rec *recorder) (int, error) {
	root := rec.begin("op", -1)
	defer rec.end(root)
	req, err := decodeRequest(body, rec, root)
	if err != nil {
		return 0, err
	}
	sp := rec.begin("legodb.prepare", root)
	pq, err := store.Prepare(req.Query)
	rec.end(sp)
	if err != nil {
		return 0, err
	}
	sp = rec.begin("legodb.run", root)
	cctx, cancel := context.WithTimeout(ctx, requestTimeout)
	start := time.Now()
	res, err := pq.RunContext(cctx, legodb.Params(req.Params))
	elapsed := time.Since(start)
	cancel()
	rec.end(sp)
	if err != nil {
		return 0, err
	}
	resp := wireResult{Columns: res.Columns, Rows: res.Rows, ElapsedMs: float64(elapsed.Microseconds()) / 1000}
	return len(res.Rows), encodeResponse(out, resp, rec, root)
}

// replayWrite is one writer op: the /insert request, then the /delete.
func replayWrite(store *legodb.Store, op writeOp, out *bytes.Buffer, rec *recorder) error {
	root := rec.begin("op", -1)
	defer rec.end(root)
	req, err := decodeRequest(op.insert, rec, root)
	if err != nil {
		return err
	}
	sp := rec.begin("shred.insert", root)
	n, err := store.InsertChild(req.Query, legodb.Params(req.Params), req.Fragment)
	rec.end(sp)
	if err != nil {
		return err
	}
	if err := encodeResponse(out, map[string]any{"inserted": n}, rec, root); err != nil {
		return err
	}
	if !bytes.Equal(out.Bytes(), insertedOne) {
		return fmt.Errorf("insert answered %q, want %q", out.Bytes(), insertedOne)
	}
	if req, err = decodeRequest(op.remove, rec, root); err != nil {
		return err
	}
	sp = rec.begin("shred.delete", root)
	n, err = store.DeleteWhere(req.Query, legodb.Params(req.Params))
	rec.end(sp)
	if err != nil {
		return err
	}
	if err := encodeResponse(out, map[string]any{"deleted": n}, rec, root); err != nil {
		return err
	}
	if !bytes.Equal(out.Bytes(), deletedOne) {
		return fmt.Errorf("delete answered %q, want %q", out.Bytes(), deletedOne)
	}
	return nil
}

// traceServe is the traced run of a serving workload, on one client so
// that the engine's counters are exact per op. Ops rotate through three
// modes on the same seeded op: the untraced handler, the untraced
// replay and the traced replay.
func traceServe(ctx context.Context, cfg config, wl serveWorkload, l *live, w *serveOps, g *gate, m *maintenance, rec *recorder, rep *report) error {
	cl := newClient()
	handlerCheck, replayCheck := newQueryChecker(), newQueryChecker()
	var out bytes.Buffer
	var handler, plain, traced latencies
	var gc gcSample
	var counters [6]float64 // tuples read, bytes read, probes, scans, tuples out, rows returned
	closedLoop(1, cfg.duration(), cfg.scale.ops*3, rep, g, m, func(_, i int) (time.Duration, error) {
		k := i / 3
		if i%3 == 0 {
			g0 := readGC()
			var d time.Duration
			var err error
			if wl.writes {
				d, err = w.write(l, cl, k)
			} else {
				d, err = w.query(l, cl, handlerCheck, k)
			}
			g1 := readGC()
			gc.cycles += g1.cycles - g0.cycles
			gc.allocBytes += g1.allocBytes - g0.allocBytes
			if err == nil {
				handler = append(handler, float64(d)/1e6)
			}
			return d, err
		}
		var r *recorder
		if i%3 == 2 {
			r = rec
			r.nextOp()
		}
		store := l.store()
		before := store.Measured()
		start := time.Now()
		var rows int
		var err error
		if wl.writes {
			// Every mode writes, so restarts follow the count of all writes.
			err = replayWrite(store, w.writes[k%len(w.writes)], &out, r)
			w.written.Add(1)
		} else {
			k %= len(w.queries)
			if rows, err = replayQuery(ctx, store, w.queries[k].body, &out, r); err == nil {
				err = replayCheck.check(k, out.Bytes(), w.queries[k].want)
			}
		}
		d := time.Since(start)
		if err != nil {
			return d, err
		}
		if r == nil {
			plain = append(plain, float64(d)/1e6)
			return d, nil
		}
		traced = append(traced, float64(d)/1e6)
		after := store.Measured()
		counters[0] += float64(after.TuplesRead - before.TuplesRead)
		counters[1] += after.BytesRead - before.BytesRead
		counters[2] += float64(after.Probes - before.Probes)
		counters[3] += float64(after.Scans - before.Scans)
		counters[4] += float64(after.TuplesOut - before.TuplesOut)
		counters[5] += float64(rows)
		return d, nil
	})
	if len(handler) == 0 || len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("traced run completed no op of some mode")
	}
	n := float64(len(traced))
	for j, name := range []string{"engine.tuples_read_per_op", "engine.bytes_read_per_op", "engine.probes_per_op",
		"engine.scans_per_op", "engine.tuples_out_per_op", "engine.rows_returned_per_op"} {
		rep.setLayer(name, counters[j]/n)
	}
	h := float64(len(handler))
	rep.setLayer("runtime.gc_cycles_per_op", float64(gc.cycles)/h)
	rep.setLayer("runtime.alloc_kb_per_op", float64(gc.allocBytes)/1024/h)
	hp50, pp50, tp50 := median(handler), median(plain), median(traced)
	rep.note("traced run: handler p50 %.4f ms (n=%d), replay p50 %.4f ms untraced (n=%d) / %.4f ms traced (n=%d)",
		hp50, len(handler), pp50, len(plain), tp50, len(traced))
	rep.setLayer("server.self_us", (hp50-pp50)*1e3)
	rep.setTraceOverhead(tp50, pp50)
	return nil
}
