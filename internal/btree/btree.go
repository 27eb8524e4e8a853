// Package btree implements an in-memory B-tree keyed by (int64 key,
// int64 rowid) pairs: the kind of index the paper adds to the pre, post and
// parent columns of its MySQL table (§5.1). Nothing in the module imports
// it; internal/store keeps its own paged B+-tree.
//
// Duplicate keys are supported by making the rowid part of the ordering:
// entries are totally ordered by (key, rowid). Range scans visit entries
// in that order.
package btree

// degree is the minimum branching factor: every node except the root has
// at least degree-1 and at most 2*degree-1 entries. 32 keeps nodes around
// a cache line multiple without deep trees.
const degree = 32

const (
	maxEntries = 2*degree - 1
	minEntries = degree - 1
)

// Entry is one (key, rowid) pair.
type Entry struct {
	Key int64
	Row int64
}

func (a Entry) less(b Entry) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Row < b.Row
}

type node struct {
	entries  []Entry // len <= maxEntries
	children []*node // len == len(entries)+1, nil for leaves
}

func (n *node) leaf() bool { return n.children == nil }

// Tree is a B-tree. The zero value is an empty tree ready for use. Not
// safe for concurrent mutation; the SQL layer serializes access.
type Tree struct {
	root *node
	size int
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// search returns the first index i in n.entries with e <= entries[i]
// (lower bound).
func lowerBound(entries []Entry, e Entry) int {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if entries[mid].less(e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds (key, row). Inserting an entry that already exists is a
// no-op (the tree is a set of pairs).
func (t *Tree) Insert(key, row int64) {
	e := Entry{key, row}
	if t.root == nil {
		t.root = &node{entries: []Entry{e}}
		t.size = 1
		return
	}
	if len(t.root.entries) == maxEntries {
		// Split the root: the tree grows in height.
		old := t.root
		t.root = &node{children: []*node{old}}
		t.root.splitChild(0)
	}
	if t.root.insertNonFull(e) {
		t.size++
	}
}

// splitChild splits the full child at index i of n.
func (n *node) splitChild(i int) {
	child := n.children[i]
	mid := child.entries[degree-1]
	right := &node{
		entries: append([]Entry(nil), child.entries[degree:]...),
	}
	if !child.leaf() {
		right.children = append([]*node(nil), child.children[degree:]...)
		child.children = child.children[:degree]
	}
	child.entries = child.entries[:degree-1]

	n.entries = append(n.entries, Entry{})
	copy(n.entries[i+1:], n.entries[i:])
	n.entries[i] = mid
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

func (n *node) insertNonFull(e Entry) bool {
	i := lowerBound(n.entries, e)
	if i < len(n.entries) && n.entries[i] == e {
		return false // duplicate pair
	}
	if n.leaf() {
		n.entries = append(n.entries, Entry{})
		copy(n.entries[i+1:], n.entries[i:])
		n.entries[i] = e
		return true
	}
	if len(n.children[i].entries) == maxEntries {
		n.splitChild(i)
		if n.entries[i].less(e) {
			i++
		} else if n.entries[i] == e {
			return false
		}
	}
	return n.children[i].insertNonFull(e)
}

// Contains reports whether the exact (key, row) pair is present.
func (t *Tree) Contains(key, row int64) bool {
	e := Entry{key, row}
	n := t.root
	for n != nil {
		i := lowerBound(n.entries, e)
		if i < len(n.entries) && n.entries[i] == e {
			return true
		}
		if n.leaf() {
			return false
		}
		n = n.children[i]
	}
	return false
}

// Delete removes the (key, row) pair if present and reports whether it
// removed anything.
func (t *Tree) Delete(key, row int64) bool {
	if t.root == nil {
		return false
	}
	deleted := t.root.delete(Entry{key, row})
	if deleted {
		t.size--
	}
	if len(t.root.entries) == 0 {
		if t.root.leaf() {
			t.root = nil
		} else {
			t.root = t.root.children[0]
		}
	}
	return deleted
}

// delete removes e from the subtree rooted at n (CLRS-style: every
// recursive call is made on a child that has at least degree entries, so
// removal never underflows below the root).
func (n *node) delete(e Entry) bool {
	i := lowerBound(n.entries, e)
	if i < len(n.entries) && n.entries[i] == e {
		if n.leaf() {
			n.entries = append(n.entries[:i], n.entries[i+1:]...)
			return true
		}
		switch {
		case len(n.children[i].entries) > minEntries:
			// Replace by predecessor and remove it from the left subtree.
			n.entries[i] = n.children[i].deleteMax()
		case len(n.children[i+1].entries) > minEntries:
			// Replace by successor and remove it from the right subtree.
			n.entries[i] = n.children[i+1].deleteMin()
		default:
			// Both neighbours minimal: merge them around e, then delete e
			// from the merged child.
			n.mergeChildren(i)
			return n.children[i].delete(e)
		}
		return true
	}
	if n.leaf() {
		return false
	}
	i = n.ensureChildBig(i)
	return n.children[i].delete(e)
}

// deleteMax removes and returns the maximum entry of the subtree.
func (n *node) deleteMax() Entry {
	if n.leaf() {
		e := n.entries[len(n.entries)-1]
		n.entries = n.entries[:len(n.entries)-1]
		return e
	}
	i := n.ensureChildBig(len(n.children) - 1)
	return n.children[i].deleteMax()
}

// deleteMin removes and returns the minimum entry of the subtree.
func (n *node) deleteMin() Entry {
	if n.leaf() {
		e := n.entries[0]
		n.entries = append(n.entries[:0], n.entries[1:]...)
		return e
	}
	i := n.ensureChildBig(0)
	return n.children[i].deleteMin()
}

// mergeChildren merges children[i], entries[i] and children[i+1] into a
// single child at index i. Both children must have minEntries entries.
func (n *node) mergeChildren(i int) {
	child, right := n.children[i], n.children[i+1]
	child.entries = append(child.entries, n.entries[i])
	child.entries = append(child.entries, right.entries...)
	if !child.leaf() {
		child.children = append(child.children, right.children...)
	}
	n.entries = append(n.entries[:i], n.entries[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// ensureChildBig guarantees children[i] has more than minEntries entries
// by borrowing from a sibling or merging, and returns the (possibly
// shifted) index of the child that now covers the original key range.
func (n *node) ensureChildBig(i int) int {
	if len(n.children[i].entries) > minEntries {
		return i
	}
	child := n.children[i]
	switch {
	case i > 0 && len(n.children[i-1].entries) > minEntries:
		// Borrow from left sibling through the separator.
		left := n.children[i-1]
		child.entries = append(child.entries, Entry{})
		copy(child.entries[1:], child.entries)
		child.entries[0] = n.entries[i-1]
		n.entries[i-1] = left.entries[len(left.entries)-1]
		left.entries = left.entries[:len(left.entries)-1]
		if !child.leaf() {
			child.children = append(child.children, nil)
			copy(child.children[1:], child.children)
			child.children[0] = left.children[len(left.children)-1]
			left.children = left.children[:len(left.children)-1]
		}
	case i < len(n.children)-1 && len(n.children[i+1].entries) > minEntries:
		// Borrow from right sibling.
		right := n.children[i+1]
		child.entries = append(child.entries, n.entries[i])
		n.entries[i] = right.entries[0]
		copy(right.entries, right.entries[1:])
		right.entries = right.entries[:len(right.entries)-1]
		if !child.leaf() {
			child.children = append(child.children, right.children[0])
			copy(right.children, right.children[1:])
			right.children = right.children[:len(right.children)-1]
		}
	default:
		// Merge with a sibling; merging with the left sibling shifts the
		// target child index down by one.
		if i == len(n.children)-1 {
			i--
		}
		n.mergeChildren(i)
	}
	return i
}

func (n *node) max() Entry {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.entries[len(n.entries)-1]
}

// AscendRange visits all entries with minKey <= Key <= maxKey in
// (key, row) order, calling fn for each; fn returning false stops the
// scan early.
func (t *Tree) AscendRange(minKey, maxKey int64, fn func(Entry) bool) {
	if t.root == nil || minKey > maxKey {
		return
	}
	t.root.ascendRange(Entry{minKey, -1 << 62}, maxKey, fn)
}

// AscendGE visits all entries with Key >= minKey in order.
func (t *Tree) AscendGE(minKey int64, fn func(Entry) bool) {
	if t.root == nil {
		return
	}
	t.root.ascendRange(Entry{minKey, -1 << 62}, 1<<62, fn)
}

// Ascend visits every entry in order.
func (t *Tree) Ascend(fn func(Entry) bool) {
	t.AscendGE(-1<<62, fn)
}

func (n *node) ascendRange(from Entry, maxKey int64, fn func(Entry) bool) bool {
	i := lowerBound(n.entries, from)
	for ; i < len(n.entries); i++ {
		if !n.leaf() {
			if !n.children[i].ascendRange(from, maxKey, fn) {
				return false
			}
		}
		e := n.entries[i]
		if e.Key > maxKey {
			return false
		}
		if !fn(e) {
			return false
		}
	}
	if !n.leaf() {
		return n.children[len(n.children)-1].ascendRange(from, maxKey, fn)
	}
	return true
}

// Min returns the smallest entry, if any.
func (t *Tree) Min() (Entry, bool) {
	if t.root == nil {
		return Entry{}, false
	}
	n := t.root
	for !n.leaf() {
		n = n.children[0]
	}
	return n.entries[0], true
}

// Max returns the largest entry, if any.
func (t *Tree) Max() (Entry, bool) {
	if t.root == nil {
		return Entry{}, false
	}
	return t.root.max(), true
}

// depth returns the tree height (for tests / diagnostics).
func (t *Tree) depth() int {
	d := 0
	n := t.root
	for n != nil {
		d++
		if n.leaf() {
			break
		}
		n = n.children[0]
	}
	return d
}

// checkInvariants validates B-tree structural invariants; used by tests.
func (t *Tree) checkInvariants() error {
	if t.root == nil {
		return nil
	}
	_, _, err := t.root.check(true)
	return err
}

type btError string

func (e btError) Error() string { return string(e) }

func (n *node) check(isRoot bool) (min, max Entry, err error) {
	if !isRoot && len(n.entries) < minEntries {
		return min, max, btError("node underflow")
	}
	if len(n.entries) > maxEntries {
		return min, max, btError("node overflow")
	}
	for i := 1; i < len(n.entries); i++ {
		if !n.entries[i-1].less(n.entries[i]) {
			return min, max, btError("entries out of order")
		}
	}
	if n.leaf() {
		return n.entries[0], n.entries[len(n.entries)-1], nil
	}
	if len(n.children) != len(n.entries)+1 {
		return min, max, btError("child count mismatch")
	}
	var depths []int
	_ = depths
	for i, c := range n.children {
		cmin, cmax, err := c.check(false)
		if err != nil {
			return min, max, err
		}
		if i > 0 && !n.entries[i-1].less(cmin) {
			return min, max, btError("child min violates separator")
		}
		if i < len(n.entries) && !cmax.less(n.entries[i]) {
			return min, max, btError("child max violates separator")
		}
		if i == 0 {
			min = cmin
		}
		if i == len(n.children)-1 {
			max = cmax
		}
	}
	return min, max, nil
}
