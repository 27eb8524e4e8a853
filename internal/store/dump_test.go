package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// dumpImage assembles a dump stream from a header and raw page images.
func dumpImage(firstHeap uint32, rowCount uint64, pages ...[]byte) []byte {
	hdr := make([]byte, v2HeaderLen)
	copy(hdr, v2Magic)
	binary.LittleEndian.PutUint32(hdr[16:], v2Version)
	binary.LittleEndian.PutUint32(hdr[20:], pageSize)
	binary.LittleEndian.PutUint32(hdr[24:], uint32(len(pages)))
	binary.LittleEndian.PutUint32(hdr[28:], firstHeap)
	binary.LittleEndian.PutUint64(hdr[32:], rowCount)
	for _, p := range pages {
		hdr = append(hdr, p...)
	}
	return hdr
}

// heapPage returns a heap page holding one row of pre (none when pre is
// 0), edited by edit.
func heapPage(pre int64, edit func(p []byte)) []byte {
	p := make([]byte, pageSize)
	pageInit(p)
	if pre != 0 {
		pageInsert(p, encodeRow(nil, NodeRow{Pre: pre, Post: pre, Parent: 0, Poly: []byte{1, 2, 3}}))
	}
	if edit != nil {
		edit(p)
	}
	return p
}

func putU16(off int, v uint16) func(p []byte) {
	return func(p []byte) { binary.LittleEndian.PutUint16(p[off:], v) }
}

// hostileDumps are streams with a valid header whose pages lie about
// their layout. The first two panicked the loader before it checked
// pages.
var hostileDumps = []struct {
	name string
	dump []byte
}{
	{"5000 slots", dumpImage(1, 0, heapPage(0, putU16(pageOffNSlots, 5000)))},
	{"slot past the page end", dumpImage(1, 1, heapPage(1, func(p []byte) {
		setSlot(p, 0, 8000, 1000)
		putU16(pageOffUpper, 8000)(p)
	}))},
	{"not a heap page", dumpImage(1, 1, heapPage(1, func(p []byte) { p[0] = 'L' }))},
	{"payload start past the page", dumpImage(1, 1, heapPage(1, putU16(pageOffUpper, pageSize+1)))},
	{"payload start inside the slot array", dumpImage(1, 1, heapPage(1, putU16(pageOffUpper, pageHdrLen)))},
	{"slot below the payload start", dumpImage(1, 1, heapPage(1, func(p []byte) {
		off, _ := slotAt(p, 0)
		putU16(pageOffUpper, uint16(off+1))(p)
	}))},
	{"slot shorter than a row header", dumpImage(1, 1, heapPage(1, func(p []byte) {
		off, _ := slotAt(p, 0)
		setSlot(p, 0, off, rowHeaderLen-1)
	}))},
	{"poly length past the slot", dumpImage(1, 1, heapPage(1, func(p []byte) {
		off, _ := slotAt(p, 0)
		binary.LittleEndian.PutUint32(p[off+rowOffPolyLen:], 4)
	}))},
	{"live count off by one", dumpImage(1, 1, heapPage(1, putU16(pageOffLive, 2)))},
	{"next page past the file", dumpImage(1, 1, heapPage(1, func(p []byte) { pageSetNext(p, 2) }))},
	{"no first page", dumpImage(0, 1, heapPage(1, nil))},
	{"first page past the file", dumpImage(2, 1, heapPage(1, nil))},
	{"first page without pages", dumpImage(1, 0)},
	{"chain cycle", dumpImage(1, 2,
		heapPage(1, func(p []byte) { pageSetNext(p, 2) }),
		heapPage(2, func(p []byte) { pageSetNext(p, 1) }))},
	{"chain misses a page", dumpImage(1, 2, heapPage(1, nil), heapPage(2, nil))},
	{"row count mismatch", dumpImage(1, 2, heapPage(1, nil))},
	{"duplicate pre", dumpImage(1, 2,
		heapPage(1, func(p []byte) { pageSetNext(p, 2) }),
		heapPage(1, nil))},
	{"truncated page", dumpImage(1, 1, heapPage(1, nil))[:v2HeaderLen+100]},
}

// loadRefused asserts that Load of stream fails with a *DumpError and
// leaves the table's contents exactly as they were.
func loadRefused(t *testing.T, s *Store, stream []byte) {
	t.Helper()
	var before bytes.Buffer
	if err := s.Dump(&before); err != nil {
		t.Fatal(err)
	}
	err := s.Load(bytes.NewReader(stream))
	var de *DumpError
	if !errors.As(err, &de) {
		t.Fatalf("Load = %v, want a *DumpError", err)
	}
	var after bytes.Buffer
	if err := s.Dump(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("a refused load changed the table")
	}
}

func TestLoadRejectsHostilePages(t *testing.T) {
	for _, tc := range hostileDumps {
		t.Run(tc.name, func(t *testing.T) {
			s := newStore(t)
			randomOps(t, s, 3, 200)
			loadRefused(t, s, tc.dump)
			lo, _, err := s.MinMaxPre()
			if err == nil {
				_, err = s.Node(lo)
			}
			if err != nil {
				t.Fatalf("previous contents unreadable after a refused load: %v", err)
			}
		})
	}
	// The builders themselves produce a loadable dump when left alone.
	if err := newStore(t).Load(bytes.NewReader(dumpImage(1, 1, heapPage(1, nil)))); err != nil {
		t.Fatalf("unedited crafted dump refused: %v", err)
	}
}

// TestV2CrossFormatLoadErrors: Load reads only the page format; any
// other stream is a *DumpError and the table is unchanged.
func TestV2CrossFormatLoadErrors(t *testing.T) {
	t.Run(format, func(t *testing.T) {
		s := newStore(t)
		randomOps(t, s, 5, 100)
		// The opening bytes of an encoding/gob stream, the old dump format.
		gobLike := []byte{0x1f, 0xff, 0x81, 0x03, 0x01, 0x01, 0x05, 'T', 'a', 'b', 'l', 'e', 0x01, 0xff, 0x82}
		loadRefused(t, s, gobLike)
		loadRefused(t, s, []byte("this is neither a gob nor a page file, but long enough"))
		loadRefused(t, s, dumpImage(0, 0)[:v2HeaderLen-1])
		loadRefused(t, s, nil)
	})
}

// FuzzLoadDump feeds arbitrary streams to Load. A refused stream must be
// a *DumpError that leaves the table unchanged; an accepted one must
// serve every read and write without panicking, and dump back to the
// same pages.
func FuzzLoadDump(f *testing.F) {
	src := New(Options{})
	randomOps(f, src, 1, 60)
	var img bytes.Buffer
	if err := src.Dump(&img); err != nil {
		f.Fatal(err)
	}
	f.Add(img.Bytes())
	f.Fuzz(func(t *testing.T, stream []byte) {
		s := New(Options{PoolPages: minPoolPages})
		if err := s.InsertNode(NodeRow{Pre: 1, Post: 1, Poly: []byte{9}}); err != nil {
			t.Fatal(err)
		}
		var before bytes.Buffer
		if err := s.Dump(&before); err != nil {
			t.Fatal(err)
		}
		if err := s.Load(bytes.NewReader(stream)); err != nil {
			var de *DumpError
			if !errors.As(err, &de) {
				t.Fatalf("Load = %v, want a *DumpError", err)
			}
			var after bytes.Buffer
			if err := s.Dump(&after); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before.Bytes(), after.Bytes()) {
				t.Fatal("a refused load changed the table")
			}
			return
		}
		var again bytes.Buffer
		if err := s.Dump(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(stream, again.Bytes()) {
			t.Fatal("dump of a loaded stream differs from the stream")
		}
		lo, hi, err := s.MinMaxPre()
		if err != nil {
			return
		}
		rows, err := s.Range(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			s.Children(r.Pre)
			s.Descendants(r.Pre, r.Post)
			s.DescendantsNaive(r.Pre, r.Post)
		}
		s.Root()
		if hi < 1<<62 {
			s.InsertNode(NodeRow{Pre: hi + 1, Post: hi + 1, Parent: lo, Poly: make([]byte, 100)})
		}
		s.UpdateNode(lo, NodeRow{Pre: lo, Post: rows[0].Post, Parent: rows[0].Parent, Poly: make([]byte, 300)})
		s.DeleteNode(lo)
		s.Dump(&again)
	})
}
