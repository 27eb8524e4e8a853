package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// model is the reference the paged engine is checked against: rows in a
// slice sorted by pre, every read a linear pass over them. Children is
// parent == p and Descendants is the XPath definition
// pre < pre' ∧ post' < post — not the boundary scan — so the model
// shares no logic with the engine it checks.
type model struct {
	rows []NodeRow
}

func (m *model) find(pre int64) (int, bool) {
	i := sort.Search(len(m.rows), func(i int) bool { return m.rows[i].Pre >= pre })
	return i, i < len(m.rows) && m.rows[i].Pre == pre
}

func (m *model) InsertNode(row NodeRow) error {
	i, ok := m.find(row.Pre)
	if ok {
		return fmt.Errorf("model: duplicate pre %d", row.Pre)
	}
	row.Poly = append([]byte(nil), row.Poly...)
	m.rows = append(m.rows, NodeRow{})
	copy(m.rows[i+1:], m.rows[i:])
	m.rows[i] = row
	return nil
}

func (m *model) UpdateNode(oldPre int64, row NodeRow) error {
	if err := m.DeleteNode(oldPre); err != nil {
		return err
	}
	return m.InsertNode(row)
}

func (m *model) DeleteNode(pre int64) error {
	i, ok := m.find(pre)
	if !ok {
		return NotFoundError(pre)
	}
	m.rows = append(m.rows[:i], m.rows[i+1:]...)
	return nil
}

func (m *model) filter(keep func(NodeRow) bool) []NodeRow {
	var out []NodeRow
	for _, r := range m.rows {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

func (m *model) Children(pre int64) []NodeRow {
	return m.filter(func(r NodeRow) bool { return r.Parent == pre })
}

func (m *model) Descendants(pre, post int64) []NodeRow {
	return m.filter(func(r NodeRow) bool { return pre < r.Pre && r.Post < post })
}

func (m *model) Range(lo, hi int64) []NodeRow {
	return m.filter(func(r NodeRow) bool { return lo <= r.Pre && r.Pre <= hi })
}

// rowWriter is the mutation surface randomOps drives: a *Store or a
// *model.
type rowWriter interface {
	InsertNode(NodeRow) error
	UpdateNode(oldPre int64, row NodeRow) error
	DeleteNode(pre int64) error
}

// virtualTree numbers a random tree of n nodes in pre and post order.
// Any subset of its rows is a valid node table: descendants stay
// contiguous in pre order and every later non-descendant has a larger
// post, so the boundary scan and the XPath definition agree on it.
func virtualTree(rng *rand.Rand, n int) []NodeRow {
	rows := make([]NodeRow, n)
	var spine []int // the rightmost path, root first
	post := int64(0)
	pop := func() {
		post++
		rows[spine[len(spine)-1]].Post = post
		spine = spine[:len(spine)-1]
	}
	for i := range rows {
		for len(spine) > 1 && rng.Intn(3) == 0 {
			pop()
		}
		parent := int64(0)
		if len(spine) > 0 {
			parent = rows[spine[len(spine)-1]].Pre
		}
		rows[i] = NodeRow{Pre: int64(i + 1), Parent: parent}
		spine = append(spine, i)
	}
	for len(spine) > 0 {
		pop()
	}
	return rows
}

// randomOps drives one pseudo-random op sequence into w: rows of a
// virtual tree are inserted, rewritten in place with fresh blobs of a
// new size, renumbered onto an absent tree node (often a sibling, under
// the same parent), and deleted.
func randomOps(t testing.TB, w rowWriter, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tree := virtualTree(rng, 2*n)
	siblings := map[int64][]int{} // parent pre → indices into tree
	for j, r := range tree {
		siblings[r.Parent] = append(siblings[r.Parent], j)
	}
	var present []int // indices into tree of the stored rows
	stored := map[int]bool{}
	poly := func(pre int64) []byte {
		b := make([]byte, 40+rng.Intn(100))
		for i := range b {
			b[i] = byte(pre + int64(i))
		}
		return b
	}
	absent := func() int {
		for {
			if j := rng.Intn(len(tree)); !stored[j] {
				return j
			}
		}
	}
	for i := 0; i < n; i++ {
		switch op := rng.Intn(10); {
		case op < 6 || len(present) == 0: // insert
			j := absent()
			row := tree[j]
			row.Poly = poly(row.Pre)
			if err := w.InsertNode(row); err != nil {
				t.Fatal(err)
			}
			present = append(present, j)
			stored[j] = true
		case op < 8: // update: same node with a new blob, or renumbered
			k := rng.Intn(len(present))
			j, dst := present[k], present[k]
			switch rng.Intn(8) {
			case 0: // onto any absent node
				dst = absent()
			case 1: // onto an absent sibling, as a shift renumbers
				sib := siblings[tree[j].Parent]
				if c := sib[rng.Intn(len(sib))]; !stored[c] {
					dst = c
				}
			}
			row := tree[dst]
			row.Poly = poly(row.Pre + 1)
			if err := w.UpdateNode(tree[j].Pre, row); err != nil {
				t.Fatal(err)
			}
			delete(stored, j)
			present[k] = dst
			stored[dst] = true
		default: // delete
			k := rng.Intn(len(present))
			if err := w.DeleteNode(tree[present[k]].Pre); err != nil {
				t.Fatal(err)
			}
			delete(stored, present[k])
			present[k] = present[len(present)-1]
			present = present[:len(present)-1]
		}
	}
}

// sameRows fails unless got and want hold the same rows in order. Poly
// is compared unless meta (the *Meta reads return Poly nil).
func sameRows(t *testing.T, what string, got, want []NodeRow, meta bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, model has %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Pre != w.Pre || g.Post != w.Post || g.Parent != w.Parent {
			t.Fatalf("%s[%d]: %+v, model has %+v", what, i, g, w)
		}
		if meta && g.Poly != nil {
			t.Fatalf("%s[%d]: meta read returned a blob", what, i)
		}
		if !meta && !bytes.Equal(g.Poly, w.Poly) {
			t.Fatalf("%s[%d]: blob differs from the model", what, i)
		}
	}
}
