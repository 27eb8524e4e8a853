package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestSmokeEndToEnd drives every workload through the untraced run in
// smoke mode: set-up, warm-up, the op rotation and the correctness gate.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runEndToEnd(w, smokeOptions(3, t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted < int(numClasses) {
				t.Fatalf("attempted %d, failed %d (%s)", rep.attempted, rep.failed, rep.firstErr)
			}
			for _, m := range endToEnd {
				got, ok := rep.metrics[m.name]
				if !ok || got.Unit != m.unit || !(got.Value > 0) {
					t.Errorf("metric %s = %+v, want a positive value in %s", m.name, got, m.unit)
				}
			}
			if len(rep.metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, want %d", len(rep.metrics), len(endToEnd))
			}
		})
	}
}

// TestSmokeTraced drives the traced run, including the CPU profile and
// its grouping through go tool pprof.
func TestSmokeTraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runTraced(w, smokeOptions(3, t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 {
				t.Fatalf("failed %d (%s)", rep.failed, rep.firstErr)
			}
			if len(rep.metrics) != len(perLayer) {
				t.Errorf("%d metrics reported, want %d", len(rep.metrics), len(perLayer))
			}
			if got := rep.metrics["rmi.frames_per_op"].Value; w.remote != (got > 0) {
				t.Errorf("rmi.frames_per_op = %v on %s", got, w.name)
			}
			var cpu float64
			for name, m := range rep.metrics {
				if strings.HasPrefix(name, "cpu.") {
					cpu += m.Value
				}
			}
			// A smoke window can end before the profiler's first sample.
			if cpu != 0 && (cpu < 0.999 || cpu > 1.001) {
				t.Errorf("cpu shares sum to %v, want 1", cpu)
			}
		})
	}
}

// TestGateCatchesWrongKeys opens the session with keys other than the
// ones the table was encoded with: every read answer is then wrong, and
// the gate must count each one as failed.
func TestGateCatchesWrongKeys(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := makeInputs(0.02, 5)
			if err != nil {
				t.Fatal(err)
			}
			wrong, err := keysWithSecret("not-the-key")
			if err != nil {
				t.Fatal(err)
			}
			sys, _, err := setUp(w.remote, in, wrong, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer sys.close()
			rep := &report{}
			for c := point; c < appendLeaf; c++ {
				res := sys.run(c, in)
				if res.err == nil {
					t.Errorf("%s with wrong keys passed the gate", c)
				}
				rep.tally(res)
			}
			if rep.failed != rep.attempted {
				t.Errorf("failed %d of %d", rep.failed, rep.attempted)
			}
		})
	}
}

// TestGatePassesRightKeys is the control: the same system with the
// encoding keys passes every class, appends included.
func TestGatePassesRightKeys(t *testing.T) {
	in, err := makeInputs(0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	sys, _, err := setUp(true, in, in.keys, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	for i := 0; i < 2; i++ {
		for c := class(0); c < numClasses; c++ {
			if res := sys.run(c, in); res.err != nil {
				t.Fatalf("%s: %v", c, res.err)
			}
			if err := sys.undo(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the workloads and
// metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q, want %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if got := spec.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("end_to_end %d: %s %s, want %s %s", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range perLayer {
		if got := spec.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer %d: %+v, want %s %s %s", i, got, m.name, m.unit, m.better)
		}
		if !strings.Contains(string(readme), "`"+m.name+"`") {
			t.Errorf("README.md does not document %s", m.name)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0.5, 3}, {0.9, 4.6}, {0, 1}, {1, 5}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples")
	}
}

func TestCovered(t *testing.T) {
	ms := time.Millisecond
	frames := []frameSpan{{Start: 5 * ms, Dur: 2 * ms}, {Start: 0, Dur: 3 * ms}, {Start: 1 * ms, Dur: 1 * ms}}
	if got := covered(frames); got != 5*ms {
		t.Errorf("covered = %v, want 5ms", got)
	}
}

func TestCPUAttribution(t *testing.T) {
	raw := []byte(`File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      10ms   crypto/internal/fips140/sha256.blockSHANI
             encshare/internal/prg.(*Stream).refill
             encshare/internal/filter.parallelFor.func1
-----------+-------------------------------------------------------
      20ms   internal/sync.(*HashTrieMap[go.shape.interface {},go.shape.interface {}]).Load
             encoding/gob.(*Decoder).compileDec
             encshare/internal/rmi.(*Client).doCall
-----------+-------------------------------------------------------
      30ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      40ms   encshare/internal/filter.remoteBatch[go.shape.int64,go.shape.[]encshare/internal/filter.NodeMeta] (inline)
`)
	samples := parseTraces(raw)
	want := []struct {
		value time.Duration
		group string
	}{{10 * time.Millisecond, "cpu.prg_frac"}, {20 * time.Millisecond, "cpu.gob_frac"}, {30 * time.Millisecond, "cpu.gc_frac"}, {40 * time.Millisecond, "cpu.filter_frac"}}
	if len(samples) != len(want) {
		t.Fatalf("%d samples, want %d", len(samples), len(want))
	}
	for i, w := range want {
		if samples[i].value != w.value || attribute(samples[i].stack) != w.group {
			t.Errorf("sample %d: %v %s, want %v %s", i, samples[i].value, attribute(samples[i].stack), w.value, w.group)
		}
	}
}
