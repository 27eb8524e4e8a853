// Package store implements the server-side node table of the scheme: one
// row (pre, post, parent, poly) per XML node, where poly is the server's
// share of the node polynomial (paper §5.1).
//
// The paper's prototype keeps this table in MySQL. Here it is a
// purpose-built storage engine: a fixed-width binary row codec, slotted
// 8 KiB heap pages holding rows clustered in pre order, a B⁺-tree keyed
// on pre (plus a composite (parent, pre) tree for child navigation) and
// a CLOCK-evicting buffer pool.
//
// The descendant query exploits the contiguity of descendants in pre
// order: the subtree boundary — the smallest pre greater than pre(n)
// whose post exceeds post(n), i.e. the first non-descendant — bounds a
// range scan of (pre(n), boundary). The engine folds it into the scan
// itself as a stop condition (the first row met with post > post(n) IS
// the boundary). Cost is O(log N + |subtree|) instead of the naive O(N)
// post-filter (kept as DescendantsNaive for the ablation benchmark).
package store

import (
	"errors"
	"fmt"
	"sync"
)

// NodeRow is one stored node: the Grust numbering plus the server share of
// the node polynomial.
type NodeRow struct {
	Pre    int64
	Post   int64
	Parent int64
	Poly   []byte
}

// ErrNotFound is returned when a requested node does not exist.
var ErrNotFound = errors.New("store: node not found")

// NotFoundError is the error Node(pre) returns for a missing row —
// exported so layers that synthesize per-member errors (the cluster
// merge) produce the exact message a single server would.
func NotFoundError(pre int64) error {
	return fmt.Errorf("store: node %d: %w", pre, ErrNotFound)
}

// Options configures New.
type Options struct {
	// PoolPages bounds the buffer pool (0 = DefaultPoolPages).
	PoolPages int
}

// table is the page state of one node table: slotted heap pages, the
// index pages of both B⁺-trees, and the buffer pool over them. Load
// builds a fresh table off to the side and swaps it in whole.
type table struct {
	heapPg *pager
	idxPg  *pager
	pool   *bufferPool
	pre    *bptree // (pre, 0) → rid
	kids   *bptree // (parent, pre) → rid

	firstHeap uint32 // head of the pre-ordered heap page chain
	rowCount  int64
}

func newTable(poolPages int) table {
	t := table{heapPg: &pager{}, idxPg: &pager{}}
	t.pool = newBufferPool(poolPages, t.heapPg, t.idxPg)
	t.pre = newBptree(t.pool, t.idxPg)
	t.kids = newBptree(t.pool, t.idxPg)
	return t
}

// Store is a handle on one node table. The handle owns the table: New
// creates it empty, Close frees it.
type Store struct {
	opts Options

	mu sync.RWMutex
	table
	scratch []byte // row-encode buffer, reused under mu
}

// New returns a handle on a fresh, empty node table.
func New(opts Options) *Store {
	return &Store{opts: opts, table: newTable(opts.PoolPages)}
}

// Close frees the table's pages. The handle stays usable and reads as
// an empty table.
func (s *Store) Close() error {
	s.mu.Lock()
	s.table = newTable(s.opts.PoolPages)
	s.mu.Unlock()
	return nil
}

// PoolStats returns the buffer-pool counters.
func (s *Store) PoolStats() PoolStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pool.stats()
}

// CopyRange copies the rows with pre in [lo, hi] into a fresh store with
// the same options — the shared shard builder behind
// Database.DumpShard (shard files) and cluster.SplitStore (in-process
// shards). The caller owns the result and Closes it when done.
func (s *Store) CopyRange(lo, hi int64) (*Store, error) {
	rows, err := s.Range(lo, hi)
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("store: range [%d, %d] holds no rows", lo, hi)
	}
	dst := New(s.opts)
	for _, row := range rows {
		if err := dst.InsertNode(row); err != nil {
			dst.Close()
			return nil, err
		}
	}
	return dst, nil
}
