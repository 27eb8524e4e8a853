package filter

import (
	"math/rand"
	"testing"
)

// The paged protocols carry resume cursors chosen by one side and
// honored by the other, so the properties worth fuzzing are exactly the
// cursor algebra: for ANY budget, member shape, and resume point, the
// page loop must terminate, every page must make progress, and the
// reassembled reply must be byte-for-byte the unpaged reply. The fakes
// below synthesize member row sets from the fuzz seed without a store,
// so the fuzzer explores shapes (empty members, single wide members,
// budget smaller than one row) far faster than an encoder could build
// them.

// fakeDescAPI serves synthetic descendant rows. Each member's span is
// identified by its (unique) Post value, and a span's reply is every
// member row with Pre > span.Pre — the same contract the real store
// slice obeys, which is what makes the resume-at-last-delivered-pre
// cursor sound.
type fakeDescAPI struct {
	byPost map[int64][]NodeMeta
}

func (f *fakeDescAPI) DescendantsBatch(spans []Span) ([][]NodeMeta, error) {
	out := make([][]NodeMeta, len(spans))
	for i, sp := range spans {
		for _, r := range f.byPost[sp.Post] {
			if r.Pre > sp.Pre {
				out[i] = append(out[i], r)
			}
		}
	}
	return out, nil
}

// fuzzMembers synthesizes nMembers spans with pseudo-random widths and
// pre gaps from seed.
func fuzzMembers(seed int64, nMembers int) ([]Span, *fakeDescAPI) {
	rng := rand.New(rand.NewSource(seed))
	api := &fakeDescAPI{byPost: map[int64][]NodeMeta{}}
	spans := make([]Span, nMembers)
	pre := int64(1)
	for m := 0; m < nMembers; m++ {
		post := int64(1_000_000 + m) // unique member key
		start := pre
		width := rng.Intn(200) // occasionally empty members
		var rows []NodeMeta
		for k := 0; k < width; k++ {
			pre += 1 + int64(rng.Intn(3)) // gaps: pres are not dense
			rows = append(rows, NodeMeta{Pre: pre, Post: post, Parent: start})
		}
		api.byPost[post] = rows
		spans[m] = Span{Pre: start, Post: post}
		pre++
	}
	return spans, api
}

// drainDescPages drives the server-side pager from an arbitrary cursor
// exactly as the remote client loop does, with the client's progress
// validation, and returns the reassembled per-member rows.
func drainDescPages(t *testing.T, api *fakeDescAPI, spans []Span, member int, resume int64) [][]NodeMeta {
	t.Helper()
	out := make([][]NodeMeta, len(spans))
	var total int
	for _, sp := range spans {
		total += len(api.byPost[sp.Post])
	}
	m, r := member, resume
	for pages := 0; ; pages++ {
		if pages > total+len(spans)+2 {
			t.Fatalf("page loop did not terminate after %d pages", pages)
		}
		rep, err := pageDescendants(api.DescendantsBatch, descPageArgs{Spans: spans, Member: m, Resume: r})
		if err != nil {
			t.Fatalf("pageDescendants(member=%d resume=%d): %v", m, r, err)
		}
		for _, p := range rep.Parts {
			if p.Member < m || p.Member >= len(spans) {
				t.Fatalf("page addressed member %d outside [%d, %d)", p.Member, m, len(spans))
			}
			out[p.Member] = append(out[p.Member], p.Metas...)
		}
		if rep.Done {
			return out
		}
		if rep.NextMember < m || rep.NextMember >= len(spans) ||
			(rep.NextMember == m && rep.NextResume <= r) {
			t.Fatalf("no progress: cursor %d/%d -> %d/%d", m, r, rep.NextMember, rep.NextResume)
		}
		m, r = rep.NextMember, rep.NextResume
	}
}

// FuzzPageDescendants: for random budgets, member widths, and resume
// points, the paged descendants protocol reassembles the unpaged reply
// byte-for-byte — both from the start and when (re)entered at an
// arbitrary mid-stream cursor, as happens after a replica failover.
func FuzzPageDescendants(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(256), uint8(0), uint16(0))
	f.Add(int64(42), uint8(1), uint16(64), uint8(0), uint16(17))
	f.Add(int64(7), uint8(6), uint16(31), uint8(2), uint16(5))
	f.Add(int64(99), uint8(0), uint16(4096), uint8(1), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, nMembers uint8, budget uint16, startMember uint8, startResume uint16) {
		nm := int(nMembers)%8 + 1
		spans, api := fuzzMembers(seed, nm)

		oldBudget, oldChunk := ReplyByteBudget, pageFetchChunk
		ReplyByteBudget = int(budget)%4096 + 1 // down to budgets smaller than one row
		pageFetchChunk = int(budget)%7 + 1     // small windows: exercise refetch boundaries
		defer func() { ReplyByteBudget, pageFetchChunk = oldBudget, oldChunk }()

		want, err := api.DescendantsBatch(spans)
		if err != nil {
			t.Fatal(err)
		}

		// Full reconstruction from the zero cursor.
		got := drainDescPages(t, api, spans, 0, 0)
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("member %d: %d rows, want %d", i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("member %d row %d: %+v != %+v", i, j, got[i][j], want[i][j])
				}
			}
		}

		// Tail reconstruction from an arbitrary resume point, as a
		// failover restart would issue it.
		sm := int(startMember) % nm
		resume := spans[sm].Pre + int64(startResume)%600 // may overshoot the member: tail can be empty
		tail := drainDescPages(t, api, spans, sm, resume)
		for i := 0; i < sm; i++ {
			if len(tail[i]) != 0 {
				t.Fatalf("resumed loop delivered %d rows for already-finished member %d", len(tail[i]), i)
			}
		}
		for i := sm; i < nm; i++ {
			var wantTail []NodeMeta
			for _, r := range want[i] {
				if i > sm || r.Pre > resume {
					wantTail = append(wantTail, r)
				}
			}
			if len(tail[i]) != len(wantTail) {
				t.Fatalf("member %d tail from pre %d: %d rows, want %d", i, resume, len(tail[i]), len(wantTail))
			}
			for j := range wantTail {
				if tail[i][j] != wantTail[j] {
					t.Fatalf("member %d tail row %d: %+v != %+v", i, j, tail[i][j], wantTail[j])
				}
			}
		}
	})
}

// fuzzBundles synthesizes deterministic equality bundles: the poly
// sizes (and so the page split points) derive from the pre and seed.
func fuzzBundles(seed int64, pres []int64) func([]int64) ([]NodePolys, error) {
	return func(sub []int64) ([]NodePolys, error) {
		out := make([]NodePolys, len(sub))
		for i, pre := range sub {
			rng := rand.New(rand.NewSource(seed ^ pre))
			mk := func() PolyRow {
				poly := make([]byte, rng.Intn(300))
				rng.Read(poly)
				return PolyRow{Pre: pre, Poly: poly}
			}
			out[i].Node = mk()
			for k := 0; k < rng.Intn(4); k++ {
				out[i].Children = append(out[i].Children, mk())
			}
		}
		return out, nil
	}
}

// FuzzPageBundles: for random budgets and bundle sizes, the paged
// bundle protocol (NodePolysBatch / NodePolysPartial framing) delivers
// every requested member exactly once, in order, byte-for-byte equal to
// the unpaged fetch, from any legal entry cursor.
func FuzzPageBundles(f *testing.F) {
	f.Add(int64(1), uint8(5), uint16(512), uint8(0))
	f.Add(int64(3), uint8(1), uint16(16), uint8(0))
	f.Add(int64(8), uint8(7), uint16(100), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nMembers uint8, budget uint16, startMember uint8) {
		nm := int(nMembers)%12 + 1
		pres := make([]int64, nm)
		for i := range pres {
			pres[i] = int64(i*3 + 1)
		}
		fetch := fuzzBundles(seed, pres)

		oldBudget, oldChunk := ReplyByteBudget, pageFetchChunk
		ReplyByteBudget = int(budget)%2048 + 1
		pageFetchChunk = int(budget)%5 + 1
		defer func() { ReplyByteBudget, pageFetchChunk = oldBudget, oldChunk }()

		want, err := fetch(pres)
		if err != nil {
			t.Fatal(err)
		}

		start := int(startMember) % (nm + 1) // nm itself is legal: instantly Done
		got := make([]NodePolys, 0, nm)
		for pages := 0; ; pages++ {
			if pages > nm+2 {
				t.Fatalf("bundle page loop did not terminate after %d pages", pages)
			}
			rep, err := pageBundles(bundlePageArgs{Pres: pres, Member: start + len(got)}, fetch, nodePolysWire)
			if err != nil {
				t.Fatalf("pageBundles(member=%d): %v", start+len(got), err)
			}
			if len(rep.Bundles) == 0 && !rep.Done {
				t.Fatalf("empty page without Done at member %d", start+len(got))
			}
			got = append(got, rep.Bundles...)
			if start+len(got) > nm {
				t.Fatalf("pages delivered %d members for a request of %d", start+len(got), nm)
			}
			if rep.Done {
				break
			}
		}
		if len(got) != nm-start {
			t.Fatalf("reassembled %d members from cursor %d, want %d", len(got), start, nm-start)
		}
		for i, g := range got {
			w := want[start+i]
			if g.Err != w.Err || g.Node.Pre != w.Node.Pre || string(g.Node.Poly) != string(w.Node.Poly) {
				t.Fatalf("member %d node mismatch", start+i)
			}
			if len(g.Children) != len(w.Children) {
				t.Fatalf("member %d: %d children, want %d", start+i, len(g.Children), len(w.Children))
			}
			for j := range w.Children {
				if g.Children[j].Pre != w.Children[j].Pre || string(g.Children[j].Poly) != string(w.Children[j].Poly) {
					t.Fatalf("member %d child %d mismatch", start+i, j)
				}
			}
		}
	})
}
