package experiment

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"encshare/internal/store"
)

// StoreEngine prices every operation class the query and mutation
// pipelines issue against the storage engine — point lookups, child
// fetches, cold and warm subtree scans, the metadata-only scan behind
// frontier expansion, and the mutation apply path — as absolute time
// and allocations per row touched. The table under test is loaded from
// one dump of the environment's.
func StoreEngine(env *Env) (*Table, error) {
	var img bytes.Buffer
	if err := env.Store.Dump(&img); err != nil {
		return nil, err
	}
	load := func() (*store.Store, error) {
		s := store.New(store.Options{})
		if err := s.Load(bytes.NewReader(img.Bytes())); err != nil {
			s.Close()
			return nil, err
		}
		return s, nil
	}
	s, err := load()
	if err != nil {
		return nil, err
	}
	defer s.Close()

	root, err := s.Root()
	if err != nil {
		return nil, err
	}
	lo, hi, err := s.MinMaxPre()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(83))
	pres := make([]int64, 512)
	for i := range pres {
		pres[i] = lo + rng.Int63n(hi-lo+1)
	}

	t := &Table{
		Title:  "Storage engine — time and allocations per row",
		Header: []string{"operation", "rows/op", "µs/op", "ns/row", "allocs/row"},
	}
	addRow := func(name string, d time.Duration, rows int, allocs float64) {
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", rows),
			fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1e3),
			fmt.Sprintf("%.1f", float64(d.Nanoseconds())/float64(rows)),
			fmt.Sprintf("%.4f", allocs/float64(rows)),
		})
	}

	// Cold subtree scan: a fresh handle, first touch of every heap page
	// through an empty pool.
	cold, err := load()
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	rows, err := cold.Descendants(root.Pre, root.Post)
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	cold.Close()
	if err != nil {
		return nil, err
	}
	addRow("subtree scan (cold)", d, len(rows), float64(after.Mallocs-before.Mallocs))

	// Each warm operation runs several blocks of reps and reports its
	// median block average. The median drops host-noise spikes
	// (scheduler preemption, a background build) without also censoring
	// the engine's own GC cost the way a minimum would. The GC fence
	// before each measurement keeps one operation's garbage from being
	// collected on the next one's clock. op returns the rows it touched.
	const blocks = 5
	row := func(name string, reps int, op func() (int, error)) error {
		ds := make([]time.Duration, 0, blocks)
		var n int
		runtime.GC()
		for b := 0; b < blocks; b++ {
			start := time.Now()
			for i := 0; i < reps; i++ {
				var err error
				if n, err = op(); err != nil {
					return err
				}
			}
			ds = append(ds, time.Since(start)/time.Duration(reps))
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		allocs := testing.AllocsPerRun(reps, func() { op() })
		addRow(name, ds[blocks/2], n, allocs)
		return nil
	}

	if err := row("point lookup", 6, func() (int, error) {
		for _, pre := range pres {
			if _, err := s.Node(pre); err != nil {
				return 0, err
			}
		}
		return len(pres), nil
	}); err != nil {
		return nil, err
	}
	if err := row("children", 6, func() (int, error) {
		n := 0
		for _, pre := range pres[:128] {
			kids, err := s.Children(pre)
			if err != nil {
				return 0, err
			}
			n += len(kids)
		}
		return n, nil
	}); err != nil {
		return nil, err
	}
	if err := row("subtree scan (warm)", 8, func() (int, error) {
		rows, err := s.Descendants(root.Pre, root.Post)
		return len(rows), err
	}); err != nil {
		return nil, err
	}
	if err := row("meta-only scan", 8, func() (int, error) {
		n := 0
		err := s.VisitDescendantsMeta(root.Pre, root.Post, func(_, _, _ int64) { n++ })
		return n, err
	}); err != nil {
		return nil, err
	}
	if err := row("mutation apply", 4, func() (int, error) {
		for _, pre := range pres[:128] {
			n, err := s.Node(pre)
			if err != nil {
				return 0, err
			}
			if err := s.UpdateNode(pre, n); err != nil {
				return 0, err
			}
		}
		return 128, nil
	}); err != nil {
		return nil, err
	}

	ps := s.PoolStats()
	t.Notes = append(t.Notes, fmt.Sprintf(
		"pool: %d/%d pages resident, %d hits, %d misses, %d evictions",
		ps.Resident, ps.Pages, ps.Hits, ps.Misses, ps.Evictions))
	return t, nil
}
