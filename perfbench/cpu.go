package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// cpuGroups maps a package path to the CPU share it counts toward.
var cpuGroups = map[string]string{
	"encshare/internal/ring":     "cpu.ring_frac",
	"encshare/internal/gf":       "cpu.gf_frac",
	"encshare/internal/prg":      "cpu.prg_frac",
	"encshare/internal/secshare": "cpu.secshare_frac",
	"encshare/internal/filter":   "cpu.filter_frac",
	"encshare/internal/engine":   "cpu.engine_frac",
	"encshare/internal/rmi":      "cpu.rmi_frac",
	"encoding/gob":               "cpu.gob_frac",
	"encshare/internal/store":    "cpu.store_frac",
	"encshare/internal/btree":    "cpu.store_frac",
	"encshare/internal/wal":      "cpu.wal_frac",
}

// gcRoots are the garbage collector's entry points: a sample whose stack
// passes through one counts toward cpu.gc_frac.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// cpuShares reads a CPU profile with `go tool pprof -traces` and returns
// the share of samples per group. Flat time alone would leave the
// callees the layers lean on unattributed (SHA-256 under prg, mallocgc
// under every package, socket syscalls under rmi), so each sample goes
// to the innermost frame of its stack that belongs to a group: its own
// code or the library and runtime code it called. Samples under a GC
// entry point count as cpu.gc_frac; cpu.other_frac is the rest.
func cpuShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	out := map[string]float64{"cpu.gc_frac": 0, "cpu.other_frac": 0}
	for _, g := range cpuGroups {
		out[g] = 0
	}
	var total time.Duration
	for _, s := range parseTraces(raw) {
		total += s.value
		out[attribute(s.stack)] += float64(s.value)
	}
	if total > 0 {
		for k := range out {
			out[k] /= float64(total)
		}
	}
	return out, nil
}

// attribute names the share a stack (leaf first) counts toward.
func attribute(stack []string) string {
	for _, fn := range stack {
		if gcRoots[fn] {
			return "cpu.gc_frac"
		}
	}
	for _, fn := range stack {
		if g, ok := cpuGroups[pkgOf(fn)]; ok {
			return g
		}
	}
	return "cpu.other_frac"
}

type sample struct {
	value time.Duration
	stack []string // leaf first
}

// parseTraces reads `go tool pprof -traces` output: blocks separated by
// "-----------+---..." lines, each a sample value followed by the stack.
func parseTraces(raw []byte) []sample {
	var out []sample
	in := false
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			in = true
			out = append(out, sample{})
			continue
		}
		text := strings.TrimSpace(strings.TrimSuffix(line, " (inline)"))
		if !in || text == "" {
			continue
		}
		cur := &out[len(out)-1]
		if len(cur.stack) == 0 {
			if v, rest, ok := strings.Cut(text, " "); ok {
				if d, err := time.ParseDuration(v); err == nil {
					cur.value, text = d, strings.TrimSpace(rest)
				}
			}
		}
		cur.stack = append(cur.stack, text)
	}
	return out
}

// pkgOf returns the package path of a fully qualified function name,
// e.g. "encshare/internal/ring" for "encshare/internal/ring.(*Ring).MulInto".
// Generic instantiations ("pkg.F[go.shape.int64,...]") are cut at the
// type arguments first.
func pkgOf(fn string) string {
	if i := strings.Index(fn, "["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
