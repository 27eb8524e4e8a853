package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// Dump format: a 40-byte header followed by the raw heap page images in
// page-ID order. Index pages are NOT dumped — the B⁺-trees are rebuilt
// on load — so Dump byte-determinism is a property of the heap pages
// alone, which insert/update/delete keep deterministic (stable slots,
// deterministic splits).
//
//	[ 0:16) magic "encshare-pagesv2"
//	[16:20) version  uint32 = 1
//	[20:24) pageSize uint32
//	[24:28) nPages   uint32
//	[28:32) firstHeap uint32
//	[32:40) rowCount uint64
//	then nPages × pageSize bytes, pages 1..nPages
const (
	v2Magic     = "encshare-pagesv2"
	v2Version   = 1
	v2HeaderLen = 40
)

// DumpError is the error Load returns for a stream it refuses: one that
// is not a page file of this format, ends early, or holds a page that
// breaks the slotted-page invariants. The table is left as it was.
type DumpError struct {
	Page   uint32 // 1-based page at fault; 0 for the header and file-wide checks
	Reason string
	Err    error // the underlying read error, if any
}

func (e *DumpError) Error() string {
	msg := "store: load: "
	if e.Page > 0 {
		msg += fmt.Sprintf("page %d: ", e.Page)
	}
	msg += e.Reason
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *DumpError) Unwrap() error { return e.Err }

// Dump serializes the table as raw heap page images, byte-deterministic
// across replicas applying the same op sequence.
func (s *Store) Dump(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.pool.flush(spaceHeap)
	var hdr [v2HeaderLen]byte
	copy(hdr[:16], v2Magic)
	binary.LittleEndian.PutUint32(hdr[16:], v2Version)
	binary.LittleEndian.PutUint32(hdr[20:], pageSize)
	binary.LittleEndian.PutUint32(hdr[24:], uint32(s.heapPg.count()))
	binary.LittleEndian.PutUint32(hdr[28:], s.firstHeap)
	binary.LittleEndian.PutUint64(hdr[32:], uint64(s.rowCount))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("store: dump: %w", err)
	}
	for _, p := range s.heapPg.pages {
		if _, err := w.Write(p); err != nil {
			return fmt.Errorf("store: dump: %w", err)
		}
	}
	return nil
}

// Load replaces the table with a Dump image. The page images are
// adopted verbatim (dump→load→dump is the byte identity) and the trees
// are rebuilt from the live slots. The stream is checked page by page
// into a fresh table that is swapped in only once it is whole, so a
// refused stream (a *DumpError) leaves the current contents readable.
func (s *Store) Load(r io.Reader) error {
	t, err := readDump(r, s.opts.PoolPages)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.table = t
	s.mu.Unlock()
	return nil
}

func readDump(r io.Reader, poolPages int) (table, error) {
	fail := func(page uint32, err error, format string, args ...any) (table, error) {
		return table{}, &DumpError{Page: page, Reason: fmt.Sprintf(format, args...), Err: err}
	}
	var hdr [v2HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fail(0, err, "short header")
	}
	if string(hdr[:16]) != v2Magic {
		return fail(0, nil, "not a v2 page file")
	}
	if v := binary.LittleEndian.Uint32(hdr[16:]); v != v2Version {
		return fail(0, nil, "dump version %d (want %d)", v, v2Version)
	}
	if ps := binary.LittleEndian.Uint32(hdr[20:]); ps != pageSize {
		return fail(0, nil, "dump page size %d (want %d)", ps, pageSize)
	}
	nPages := binary.LittleEndian.Uint32(hdr[24:])
	firstHeap := binary.LittleEndian.Uint32(hdr[28:])
	rowCount := int64(binary.LittleEndian.Uint64(hdr[32:]))
	if (firstHeap == 0) != (nPages == 0) || firstHeap > nPages {
		return fail(0, nil, "first heap page %d in a %d-page file", firstHeap, nPages)
	}

	t := newTable(poolPages)
	t.firstHeap = firstHeap
	type entry struct {
		pre, parent int64
		r           rid
	}
	var entries []entry
	next := []uint32{0} // next[id] is page id's chain successor
	for id := uint32(1); id <= nPages; id++ {
		t.heapPg.alloc()
		p := t.heapPg.pages[id-1]
		if _, err := io.ReadFull(r, p); err != nil {
			return fail(id, err, "short page")
		}
		if err := checkPage(p, nPages); err != nil {
			return fail(id, nil, "%v", err)
		}
		next = append(next, pageNext(p))
		for i := 0; i < pageNSlots(p); i++ {
			if sl := pageSlot(p, i); sl != nil {
				pre, _, parent := decodeRowMeta(sl)
				entries = append(entries, entry{pre: pre, parent: parent, r: rid{page: id, slot: uint16(i)}})
			}
		}
	}
	seen := make([]bool, nPages+1)
	visited := uint32(0)
	for id := firstHeap; id != 0; id = next[id] {
		if seen[id] {
			return fail(0, nil, "heap page chain revisits page %d", id)
		}
		seen[id] = true
		visited++
	}
	if visited != nPages {
		return fail(0, nil, "heap page chain reaches %d of %d pages", visited, nPages)
	}
	if int64(len(entries)) != rowCount {
		return fail(0, nil, "%d live rows but header says %d", len(entries), rowCount)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].pre < entries[j].pre })
	for _, e := range entries {
		if t.pre.set(treeKey{a: e.pre}, e.r) {
			return fail(e.r.page, nil, "duplicate pre %d", e.pre)
		}
		t.kids.set(treeKey{a: e.parent, b: e.pre}, e.r)
	}
	t.rowCount = rowCount
	return t, nil
}

// checkPage enforces the slotted-page invariants every later read and
// write relies on, before any offset in the page is followed: the slot
// array and the payload stay inside the page, every live slot holds a
// whole row, the live count matches the slots, and the chain pointer
// names a page of the file.
func checkPage(p []byte, nPages uint32) error {
	if p[0] != pageTypeHeap {
		return fmt.Errorf("type %q, want %q", p[0], pageTypeHeap)
	}
	n, upper := pageNSlots(p), pageUpper(p)
	if pageHdrLen+slotLen*n > upper || upper > pageSize {
		return fmt.Errorf("%d slots and payload start %d do not fit the page", n, upper)
	}
	live := 0
	for i := 0; i < n; i++ {
		off, length := slotAt(p, i)
		if off == 0 {
			continue
		}
		if off < upper || off+length > pageSize {
			return fmt.Errorf("slot %d spans [%d, %d), outside the payload [%d, %d)", i, off, off+length, upper, pageSize)
		}
		if length < rowHeaderLen {
			return fmt.Errorf("slot %d holds %d bytes, less than a row header", i, length)
		}
		if polyLen := binary.LittleEndian.Uint32(p[off+rowOffPolyLen:]); int64(polyLen) > int64(length-rowHeaderLen) {
			return fmt.Errorf("slot %d: row poly length %d exceeds the %d-byte slot", i, polyLen, length)
		}
		live++
	}
	if live != pageLive(p) {
		return fmt.Errorf("header counts %d live slots, found %d", pageLive(p), live)
	}
	if nx := pageNext(p); nx > nPages {
		return fmt.Errorf("next page %d beyond the %d-page file", nx, nPages)
	}
	return nil
}
