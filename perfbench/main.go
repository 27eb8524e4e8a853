// Command perfbench is the repository benchmark. It runs one named
// workload against the program built from this checkout and prints every
// metric by name, with its unit, as the last line of standard output:
//
//	bash perfbench/run.sh --workload remote-small --seed 1 --seconds 20 --trace 0
//
// The four canonical operations (strict point query, containment scan,
// verified SUM, append of a leaf) run in a fixed rotation from one
// closed-loop session: the next operation is sent only after the reply
// to the previous one. Every answer is checked against the plaintext
// oracle; a wrong answer or an error counts as failed and makes the run
// incorrect.
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// is the separate traced run that gives the per-layer numbers (see
// layers.go). README.md lists every metric with the end-to-end metric
// and workload it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one named input set. All run the same op rotation; they
// differ in document size and in whether the session crosses rmi.
type workload struct {
	name   string
	scale  float64 // XMark scale factor
	remote bool    // server.Runtime on loopback TCP (else encshare.OpenLocal)
}

var workloads = []workload{
	{name: "remote-small", scale: 0.1, remote: true},
	{name: "local-small", scale: 0.1, remote: false},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// maxSetups caps the set-ups options.setupFor adds (see prepare).
const maxSetups = 25

// options sizes one run.
type options struct {
	seed     int64
	window   time.Duration // timed window
	warmup   time.Duration // untimed closed-loop time before the window (at least one cycle)
	setups   int           // set-ups timed at least; the last one is measured
	setupFor time.Duration // keep setting up until this much time has passed
	maxOps   int           // stop the window after this many ops (0: time only)
	scale    float64       // overrides the workload's scale when > 0
	out      string        // directory for run files (spans, profiles, scratch state)
}

// smokeOptions is the tiny configuration the benchmark's own tests run:
// a small document and a few cycles, enough to drive the harness and the
// correctness gate end to end.
func smokeOptions(seed int64, out string) options {
	return options{seed: seed, window: time.Minute, setups: 1, maxOps: 8, scale: 0.02, out: out}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: remote-small or local-small")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same keys (the document and the op order are fixed per workload)")
		seconds = flag.Int("seconds", 20, "length of the timed window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		smoke   = flag.Bool("smoke", false, "tiny document and a few ops: checks the harness, not performance")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench-runs"), "directory for run files")
	)
	flag.Parse()
	// One P: client, server and collector take turns on one core, so the
	// process's CPU clock counts the program's work. With a second P the
	// Go scheduler spins looking for work whenever the other core is
	// idle, and that CPU time depends on what else the machine runs.
	runtime.GOMAXPROCS(1)
	if err := mainErr(*name, *seed, *seconds, *trace, *smoke, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds, trace int, smoke bool, out string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	o := options{
		seed:     seed,
		window:   time.Duration(seconds) * time.Second,
		warmup:   min(2*time.Second, time.Duration(seconds)*time.Second/10),
		setups:   7,
		setupFor: 1500 * time.Millisecond,
		out:      out,
	}
	if smoke {
		o = smokeOptions(seed, out)
	}
	var rep *report
	if trace == 1 {
		rep, err = runTraced(w, o)
	} else {
		rep, err = runEndToEnd(w, o)
	}
	if err != nil {
		return err
	}
	return rep.print(os.Stdout)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome. print writes the run record (environment,
// per-class sample counts, latency, the first failure) on one line, then the
// result object the benchmark contract specifies as the last line.
type report struct {
	workload  string
	seed      int64
	trace     int
	env       environment
	samples   map[string]int
	attempted int
	failed    int
	firstErr  string
	metrics   map[string]metric
	extra     map[string]any // more of the run record: latency, raw CPU time, gauge
}

func (r *report) print(f *os.File) error {
	record := map[string]any{
		"workload":    r.workload,
		"seed":        r.seed,
		"trace":       r.trace,
		"env":         r.env,
		"samples":     r.samples,
		"failed_frac": float64(r.failed) / float64(max(r.attempted, 1)),
	}
	if r.firstErr != "" {
		record["first_failure"] = r.firstErr
	}
	for k, v := range r.extra {
		record[k] = v
	}
	line, err := json.Marshal(record)
	if err != nil {
		return err
	}
	result, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0 && r.attempted > 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n%s\n", line, result)
	return err
}

// tally counts attempted and failed operations.
func (r *report) tally(res opResult) {
	r.attempted++
	if res.err != nil {
		r.failed++
		if r.firstErr == "" {
			r.firstErr = res.class.String() + ": " + res.err.Error()
		}
	}
}

// bench is a set-up system ready for measurement.
type bench struct {
	w     workload
	o     options
	in    *inputs
	sys   *system
	rot   *rotation
	g     *gauge
	setup []float64 // CPU seconds of each set-up over the gauge reading beside it
}

// prepare generates the inputs, times o.setups set-ups (keeping the
// last) and warms the system with the op rotation.
func prepare(w workload, o options) (_ *bench, err error) {
	scale := w.scale
	if o.scale > 0 {
		scale = o.scale
	}
	in, err := makeInputs(scale, o.seed)
	if err != nil {
		return nil, err
	}
	g, err := newGauge()
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, o: o, in: in, rot: &rotation{}, g: g}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	base := filepath.Join(o.out, fmt.Sprintf("%s-%d-%d", w.name, o.seed, os.Getpid()))
	// Set up at least o.setups times and, under maxSetups, until
	// o.setupFor has passed: a small document sets up in tens of
	// milliseconds, and a median over many set-ups keeps setup_s steady.
	begin := time.Now()
	for i := 0; i < o.setups || (i < maxSetups && time.Since(begin) < o.setupFor); i++ {
		if b.sys != nil {
			b.sys.close()
			b.sys = nil
		}
		var readings []float64
		for j := 0; j < 3; j++ {
			r, err := b.g.read()
			if err != nil {
				return nil, err
			}
			readings = append(readings, r)
		}
		runtime.GC() // no earlier garbage is collected on the set-up's clock
		sys, took, err := setUp(w.remote, in, in.keys, filepath.Join(base, fmt.Sprint(i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		b.sys = sys
		b.setup = append(b.setup, took.Seconds()/median(readings))
	}
	in.xmlBytes, in.xml = int64(len(in.xml)), nil // the program holds its own copy now
	if err := b.warm(); err != nil {
		return nil, err
	}
	return b, nil
}

// warm runs the rotation untimed for o.warmup, and at least one full
// cycle, so caches fill before the window opens. A wrong answer here
// shows up again in the window.
func (b *bench) warm() error {
	deadline := time.Now().Add(b.o.warmup)
	for i := 0; i < int(numClasses) || time.Now().Before(deadline); i++ {
		c, _ := b.rot.next()
		b.sys.run(c, b.in)
		if err := b.sys.undo(); err != nil {
			return err
		}
	}
	b.rot = &rotation{} // the window starts on a fresh cycle
	return nil
}

func (b *bench) close() {
	if b.sys != nil {
		b.sys.close()
		os.Remove(filepath.Dir(b.sys.dir))
	}
	b.g.close()
}

// window runs the closed loop for o.window (or o.maxOps operations):
// op performs each operation of the rotation, told whether it starts a
// cycle. After each operation the appended leaf, if any, is deleted
// again; a failed delete ends the run, since the document would no
// longer be the one the oracle answered for.
func (b *bench) window(op func(c class, fresh bool)) error {
	deadline := time.Now().Add(b.o.window)
	for n := 0; time.Now().Before(deadline) && (b.o.maxOps == 0 || n < b.o.maxOps); n++ {
		op(b.rot.next())
		if err := b.sys.undo(); err != nil {
			return err
		}
	}
	return nil
}

// blocks is how many equal parts of the window the end-to-end run
// measures separately. Each figure is the median over the blocks of that
// block's mean over its gauge reading: a spell of load from outside the
// program that covers fewer than half the blocks does not move it. The
// document and the op cycle are the same in every block, so the blocks
// differ only in that load.
const blocks = 10

// runEndToEnd is the --trace 0 run: tracing off, no metrics registry,
// nothing between operations but the correctness check and an untimed
// gauge reading.
//
// The gated figures are CPU time per operation over the gauge reading,
// not latency: on a machine shared with other tenants the wall clock of
// the same code moved by a quarter and more from run to run, and its CPU
// time by almost as much. Latency, the figure a user waits for, and the
// raw CPU times go to the run record.
func runEndToEnd(w workload, o options) (*report, error) {
	b, err := prepare(w, o)
	if err != nil {
		return nil, err
	}
	defer b.close()

	rep := &report{workload: w.name, seed: o.seed, samples: map[string]int{}, metrics: map[string]metric{}, extra: map[string]any{}}
	var (
		cpu      [blocks][numClasses]time.Duration // CPU time of successful ops
		n        [blocks][numClasses]int
		readings [blocks][]float64
		wall     [numClasses][]float64
		busy     time.Duration // wall time in successful Session calls
		gaugeErr error
	)
	blockLen := o.window / blocks
	start := time.Now()
	err = b.window(func(c class, _ bool) {
		blk := min(int(time.Since(start)/blockLen), blocks-1)
		r, err := b.g.read()
		if err != nil && gaugeErr == nil {
			gaugeErr = err
		}
		readings[blk] = append(readings[blk], r)
		res := b.sys.run(c, b.in)
		rep.tally(res)
		if res.err == nil {
			cpu[blk][c] += res.cpu
			n[blk][c]++
			wall[c] = append(wall[c], ms(res.wall))
			busy += res.wall
		}
	})
	if err == nil {
		err = gaugeErr
	}
	if err != nil {
		return nil, err
	}
	// An untimed closing cycle leaves the caches holding the same working
	// set on every run. Then two collections: the first moves sync.Pool
	// contents to the victim cache, the second frees them, so only live
	// state remains.
	for _, c := range order {
		rep.tally(b.sys.run(c, b.in))
		if err := b.sys.undo(); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	set := func(name, unit string, v float64) { rep.metrics[name] = metric{v, unit} }
	set("setup_s", "s", median(b.setup))
	rep.samples["setup"] = len(b.setup)
	var blockReadings []float64
	for i := range readings {
		if len(readings[i]) > 0 {
			blockReadings = append(blockReadings, median(readings[i]))
		}
	}
	cpuMS, wallMS := map[string]float64{}, map[string]float64{}
	ok := 0
	for c := class(0); c < numClasses; c++ {
		var scaled, raw []float64 // over the blocks that have samples (a smoke run fills one)
		for i := range cpu {
			if n[i][c] > 0 {
				mean := ms(cpu[i][c]) / float64(n[i][c])
				raw = append(raw, mean)
				scaled = append(scaled, mean/median(readings[i]))
			}
		}
		set(c.String()+"_ref_ms", "ms", median(scaled))
		cpuMS[c.String()] = median(raw)
		wallMS[c.String()+"_p50"] = quantile(wall[c], 0.5)
		wallMS[c.String()+"_p90"] = quantile(wall[c], 0.9)
		rep.samples[c.String()] = len(wall[c])
		ok += len(wall[c])
	}
	rep.extra["gauge"] = median(blockReadings)
	rep.extra["cpu_ms"] = cpuMS
	rep.extra["wall_ms"] = wallMS
	rep.extra["ops_per_s"] = float64(ok) / busy.Seconds()
	set("live_heap_mb", "MB", float64(mem.HeapAlloc)/(1<<20))
	set("db_bytes_per_xml_byte", "B/B", float64(b.sys.dump)/float64(b.in.xmlBytes))
	rep.env = collectEnvironment(b, "")
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of xs with linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
