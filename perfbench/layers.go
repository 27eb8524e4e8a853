package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"encshare"
	"encshare/internal/obs"
)

// The traced run (--trace 1) gives the per-layer numbers. It reads the
// program only through public calls: the session's RoundTrips, per-query
// Stats and SetTracing/Trace frame spans, the server runtime's Metrics()
// registry (work counters, pool and WAL counters, the per-method
// rmi_server_call_seconds histogram, the WAL fsync histogram) and
// runtime.MemStats. The benchmark adds no spans inside the program: it
// times each Session call itself and keeps those spans in memory until
// the run ends.
//
// Cycles of the op rotation alternate between tracing off and on, so the
// two halves see the same warm state and the same machine load. Counts
// come from the untraced cycles: they are always-on counters and repeat
// exactly. Times come from the traced cycles. The two extra ServerStats
// exchanges tracing adds per query fall outside the session's trace
// window, so frame counts and frame times are taken from the spans
// inside the window, and the handler time of filter.ServerStats is left
// out of server.*.

// tracedOp is one operation of the traced run with the counter deltas
// around it.
type tracedOp struct {
	opResult
	traced bool
	start  time.Duration      // offset from the window start
	delta  map[string]float64 // counters after minus before
	window time.Duration      // the session's trace window (traced reads)
	frames []frameSpan        // frame spans inside the window
}

type frameSpan struct {
	Method   string        `json:"method"`
	Start    time.Duration `json:"start_ns"`
	Dur      time.Duration `json:"dur_ns"`
	BytesOut int64         `json:"bytes_out"`
	BytesIn  int64         `json:"bytes_in"`
}

// serverMethods are the handlers reported one by one.
var serverMethods = []string{
	"EvalBatch", "ChildrenBatch", "DescendantsBatchPage", "NodePolysBatchPage",
	"AggregateBatch", "Root", "Poly", "ChildrenPolys", "EvalAt",
	"AcquireLease", "MutateLeased", "ReleaseLease",
}

// writeMethods serve only appends; their figures are per append.
var writeMethods = map[string]bool{"AcquireLease": true, "MutateLeased": true, "ReleaseLease": true}

// snapshot reads every counter the per-layer metrics use, flattened to
// named numbers. The registry is gathered before MemStats on the way in
// and after it on the way out (see snapshotAfter), so the benchmark's
// own gathering never lands in the allocation deltas.
func (b *bench) snapshot(reg *obs.Registry) map[string]float64 {
	m := b.programCounters(reg)
	readMem(m)
	return m
}

func (b *bench) snapshotAfter(reg *obs.Registry) map[string]float64 {
	m := map[string]float64{}
	readMem(m)
	for k, v := range b.programCounters(reg) {
		m[k] = v
	}
	return m
}

func readMem(m map[string]float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["go.mallocs"] = float64(ms.Mallocs)
	m["go.alloc_bytes"] = float64(ms.TotalAlloc)
	m["go.gcs"] = float64(ms.NumGC)
}

func (b *bench) programCounters(reg *obs.Registry) map[string]float64 {
	m := map[string]float64{"frames": float64(b.sys.sess.RoundTrips())}
	if reg == nil {
		// Local sessions read the in-process filter's counters directly.
		st, _ := b.sys.sess.ServerStats()
		m["srv.evals"], m["srv.cache_hits"], m["srv.cache_misses"] = float64(st.Evals), float64(st.CacheHits), float64(st.CacheMisses)
		m["srv.decodes"], m["srv.aggregates"] = float64(st.Decodes), float64(st.Aggregates)
		return m
	}
	names := map[string]string{
		"encshare_tenant_evals_total":        "srv.evals",
		"encshare_tenant_cache_hits_total":   "srv.cache_hits",
		"encshare_tenant_cache_misses_total": "srv.cache_misses",
		"encshare_tenant_decodes_total":      "srv.decodes",
		"encshare_tenant_aggregates_total":   "srv.aggregates",
		"encshare_pool_hits_total":           "pool.hits",
		"encshare_pool_misses_total":         "pool.misses",
		"encshare_pool_evictions_total":      "pool.evictions",
		"encshare_pool_resident":             "pool.resident",
		"encshare_wal_appends_total":         "wal.appends",
		"encshare_wal_fsyncs_total":          "wal.fsyncs",
		"encshare_wal_fsync_seconds":         "wal.fsync",
		"rmi_server_bytes_in_total":          "rmi.bytes_in",
		"rmi_server_bytes_out_total":         "rmi.bytes_out",
	}
	for _, s := range reg.Gather() {
		key, ok := names[s.Name]
		if s.Name == "rmi_server_call_seconds" {
			key, ok = "call."+strings.TrimPrefix(s.Labels["method"], "filter."), true
		}
		switch {
		case !ok:
		case s.Hist != nil:
			m[key+".count"] += float64(s.Hist.Count)
			m[key+".sum_s"] += s.Hist.Sum.Seconds()
		default:
			m[key] += s.Value
		}
	}
	return m
}

func sub(after, before map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// runTraced is the --trace 1 run.
func runTraced(w workload, o options) (*report, error) {
	o.setups, o.setupFor = 1, 0 // setup_s belongs to the untraced run
	b, err := prepare(w, o)
	if err != nil {
		return nil, err
	}
	defer b.close()
	var reg *obs.Registry
	if b.sys.rt != nil {
		reg = b.sys.rt.Metrics()
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(o.out, fmt.Sprintf("%s-%d", w.name, o.seed))
	prof, err := os.Create(stem + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}

	rep := &report{workload: w.name, seed: o.seed, trace: 1, samples: map[string]int{}, metrics: map[string]metric{}}
	var ops []tracedOp
	traced := false
	start := time.Now()
	err = b.window(func(c class, fresh bool) {
		if fresh {
			traced = !traced
			b.sys.sess.SetTracing(traced)
		}
		op := tracedOp{traced: traced, start: time.Since(start)}
		before := b.snapshot(reg)
		op.opResult = b.sys.run(c, b.in)
		op.delta = sub(b.snapshotAfter(reg), before)
		if traced && c.isRead() {
			if tr := b.sys.sess.Trace(); tr != nil && tr.Root != nil {
				op.window = tr.Root.Dur
				op.frames = collectFrames(tr.Root, nil)
			}
		}
		rep.tally(op.opResult)
		ops = append(ops, op)
	})
	b.sys.sess.SetTracing(false)
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	final := b.snapshot(reg)
	lm := layerMetrics(ops, final)
	cpu, err := cpuShares(prof.Name())
	if err != nil {
		return nil, err
	}
	for k, v := range cpu {
		lm[k] = v
	}
	lm["bench.failed_frac"] = float64(rep.failed) / float64(max(rep.attempted, 1))
	for _, m := range perLayer {
		rep.metrics[m.name] = metric{lm[m.name], m.unit}
	}
	for _, op := range ops {
		key := op.class.String()
		if op.traced {
			key += "_traced"
		}
		rep.samples[key]++
	}
	if err := writeSpans(stem+".spans.jsonl", ops); err != nil {
		return nil, err
	}
	rep.env = collectEnvironment(b, prof.Name())
	return rep, nil
}

// collectFrames gathers the frame spans under sp.
func collectFrames(sp *encshare.Span, out []frameSpan) []frameSpan {
	if sp.Kind == obs.KindFrame {
		out = append(out, frameSpan{Method: sp.Method, Start: sp.Start, Dur: sp.Dur, BytesOut: sp.BytesOut, BytesIn: sp.BytesIn})
	}
	for _, c := range sp.Children {
		out = collectFrames(c, out)
	}
	return out
}

// covered is the length of the union of the frame intervals: the part
// of the trace window some frame was in flight.
func covered(frames []frameSpan) time.Duration {
	iv := append([]frameSpan(nil), frames...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total, end time.Duration
	for _, f := range iv {
		lo, hi := f.Start, f.Start+f.Dur
		if lo < end {
			lo = end
		}
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return total
}

// layerMetrics derives every per-layer metric except the CPU shares.
// "per op" means per read operation (point, scan, SUM) unless the name
// says append.
func layerMetrics(ops []tracedOp, final map[string]float64) map[string]float64 {
	lm := map[string]float64{}
	var (
		untracedReads, tracedReads, appends []tracedOp
		wall                                [numClasses][2][]float64 // [class][traced]
	)
	for _, op := range ops {
		if op.err != nil {
			continue
		}
		t := 0
		if op.traced {
			t = 1
		}
		wall[op.class][t] = append(wall[op.class][t], ms(op.wall))
		switch {
		case !op.class.isRead():
			appends = append(appends, op)
		case op.traced:
			tracedReads = append(tracedReads, op)
		default:
			untracedReads = append(untracedReads, op)
		}
	}
	perOp := func(set []tracedOp, f func(tracedOp) float64) float64 {
		if len(set) == 0 {
			return 0
		}
		var s float64
		for _, op := range set {
			s += f(op)
		}
		return s / float64(len(set))
	}
	ratio := func(set []tracedOp, num, other string) float64 {
		var a, b float64
		for _, op := range set {
			a += op.delta[num]
			b += op.delta[other]
		}
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	count := func(key string) func(tracedOp) float64 { return func(op tracedOp) float64 { return op.delta[key] } }
	handler := func(op tracedOp) float64 { // ms in handlers, stats exchanges excluded
		var s float64
		for k, v := range op.delta {
			if strings.HasPrefix(k, "call.") && strings.HasSuffix(k, ".sum_s") && k != "call.ServerStats.sum_s" {
				s += v
			}
		}
		return s * 1000
	}
	frameMs := func(op tracedOp) float64 {
		var s time.Duration
		for _, f := range op.frames {
			s += f.Dur
		}
		return ms(s)
	}
	selfMs := func(op tracedOp) float64 { return ms(op.window - covered(op.frames)) }

	// engine and client-side filter work, from the queries' own Stats.
	lm["engine.self_ms_per_op"] = perOp(tracedReads, selfMs)
	lm["engine.nodes_visited_per_op"] = perOp(untracedReads, func(op tracedOp) float64 { return float64(op.stats.NodesVisited) })
	lm["engine.nodes_fetched_per_op"] = perOp(untracedReads, func(op tracedOp) float64 { return float64(op.stats.NodesFetched) })
	lm["filter.evaluations_per_op"] = perOp(untracedReads, func(op tracedOp) float64 { return float64(op.stats.Evaluations) })
	lm["filter.reconstructions_per_op"] = perOp(untracedReads, func(op tracedOp) float64 { return float64(op.stats.Reconstructions) })
	lm["filter.client_decodes_per_op"] = perOp(untracedReads, func(op tracedOp) float64 { return float64(op.stats.Decodes) })
	lm["filter.folds_per_op"] = perOp(untracedReads, func(op tracedOp) float64 { return float64(op.stats.Folds) })

	// rmi: counts from untraced reads, times from the traced windows.
	lm["rmi.frames_per_op"] = perOp(untracedReads, count("frames"))
	lm["rmi.frame_ms_per_op"] = perOp(tracedReads, frameMs)
	lm["rmi.wire_ms_per_op"] = lm["rmi.frame_ms_per_op"] - perOp(tracedReads, handler)
	lm["rmi.request_kb_per_op"] = perOp(untracedReads, count("rmi.bytes_in")) / 1024
	lm["rmi.reply_kb_per_op"] = perOp(untracedReads, count("rmi.bytes_out")) / 1024
	for c := point; c < appendLeaf; c++ {
		var cu, ct []tracedOp
		for _, op := range untracedReads {
			if op.class == c {
				cu = append(cu, op)
			}
		}
		for _, op := range tracedReads {
			if op.class == c {
				ct = append(ct, op)
			}
		}
		lm["engine.self_ms_per_op."+c.String()] = perOp(ct, selfMs)
		lm["rmi.frame_ms_per_op."+c.String()] = perOp(ct, frameMs)
		lm["rmi.frames_per_op."+c.String()] = perOp(cu, count("frames"))
	}

	// server runtime handlers, per method.
	lm["server.handler_ms_per_op"] = perOp(tracedReads, handler)
	for _, m := range serverMethods {
		set := tracedReads
		calls := untracedReads
		if writeMethods[m] {
			set, calls = appends, appends
		}
		lm["server.handler_ms_per_op."+m] = perOp(set, count("call."+m+".sum_s")) * 1000
		lm["server.calls_per_op."+m] = perOp(calls, count("call."+m+".count"))
	}

	// server-side filter: evaluations, decoded-polynomial cache, folds.
	lm["filter.server_evals_per_op"] = perOp(untracedReads, count("srv.evals"))
	lm["filter.cache_hit_ratio"] = ratio(untracedReads, "srv.cache_hits", "srv.cache_misses")
	lm["filter.server_decodes_per_op"] = perOp(untracedReads, count("srv.decodes"))
	lm["filter.aggregates_per_op"] = perOp(untracedReads, count("srv.aggregates"))

	// store buffer pool.
	lm["store.pool_hit_ratio"] = ratio(untracedReads, "pool.hits", "pool.misses")
	lm["store.pool_misses_per_op"] = perOp(untracedReads, count("pool.misses"))
	lm["store.pool_evictions_per_op"] = perOp(untracedReads, count("pool.evictions"))
	lm["store.pool_resident_pages"] = final["pool.resident"]

	// WAL and the append path (appends are not traced by the session).
	lm["wal.appends_per_append"] = perOp(appends, count("wal.appends"))
	lm["wal.syncs_per_append"] = perOp(appends, count("wal.fsyncs"))
	var fsyncN, fsyncS float64
	for _, op := range appends {
		fsyncN += op.delta["wal.fsync.count"]
		fsyncS += op.delta["wal.fsync.sum_s"]
	}
	if fsyncN > 0 {
		lm["wal.fsync_ms_mean"] = fsyncS / fsyncN * 1000
	}
	lm["append.frames_per_append"] = perOp(appends, count("frames"))
	lm["append.handler_ms_per_append"] = perOp(appends, handler)
	lm["append.wal_fsync_ms_per_append"] = perOp(appends, count("wal.fsync.sum_s")) * 1000
	lm["append.client_ms_per_append"] = perOp(appends, func(op tracedOp) float64 { return ms(op.wall) }) - lm["append.handler_ms_per_append"]

	// Go runtime: client and server share the process.
	lm["go.allocs_per_op"] = perOp(untracedReads, count("go.mallocs"))
	lm["go.alloc_kb_per_op"] = perOp(untracedReads, count("go.alloc_bytes")) / 1024
	lm["go.gc_cycles_per_op"] = perOp(untracedReads, count("go.gcs"))

	// Tracing cost and budget closure.
	var medOff, medOn float64
	for c := point; c < appendLeaf; c++ {
		medOff += median(wall[c][0])
		medOn += median(wall[c][1])
	}
	if medOff > 0 {
		lm["trace.overhead_frac"] = medOn/medOff - 1
	}
	lm["trace.bracket_ms_per_op"] = perOp(tracedReads, func(op tracedOp) float64 { return ms(op.wall - op.window) })
	// The query layers must account for the whole traced window: engine
	// self time (the window minus the union of frame intervals) plus the
	// summed frame spans. A residual means frames overlapped each other
	// or fell outside the window.
	var winMs float64
	for _, op := range tracedReads {
		winMs += ms(op.window)
	}
	if winMs > 0 {
		n := float64(len(tracedReads))
		lm["budget.residual_frac"] = (lm["engine.self_ms_per_op"]+lm["rmi.frame_ms_per_op"])*n/winMs - 1
	}
	return lm
}

// writeSpans writes the run's spans, one operation per line: the
// benchmark's own span around the Session call and the frame spans of
// the session's trace window.
func writeSpans(path string, ops []tracedOp) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, op := range ops {
		rec := map[string]any{
			"op": i, "class": op.class.String(), "traced": op.traced,
			"start_ns": op.start, "wall_ns": op.wall, "window_ns": op.window,
			"frames": op.frames,
		}
		if op.err != nil {
			rec["error"] = op.err.Error()
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
