package filter

import (
	"strings"
	"testing"
)

// allChecks builds the full (node × name) check matrix of the fixture —
// deliberately containing many checks against the same node, which is
// the shape the advanced engine's look-ahead produces and the batch
// grouping optimizes.
func allChecks(t testing.TB, fx *fixture) []Check {
	t.Helper()
	var checks []Check
	for pre := int64(1); pre <= fx.doc.Count; pre++ {
		for _, name := range fx.m.Names() {
			checks = append(checks, Check{Pre: pre, Point: fx.val(t, name)})
		}
	}
	return checks
}

// TestEvalBatchMatchesEvalAt: one batched exchange must return exactly
// the per-call results, member for member, on both the in-process server
// filter and the RMI proxy.
func TestEvalBatchMatchesEvalAt(t *testing.T) {
	fx := newFixture(t, testXML)
	rem := NewRemote(fx.rmiCli)
	for _, tc := range []struct {
		name string
		api  ServerAPI
	}{
		{"local", fx.server},
		{"remote", rem},
	} {
		checks := allChecks(t, fx)
		reqs := make([]EvalRequest, len(checks))
		for i, c := range checks {
			reqs[i] = EvalRequest(c)
		}
		got, err := tc.api.EvalBatch(reqs)
		if err != nil {
			t.Fatalf("%s: EvalBatch: %v", tc.name, err)
		}
		if len(got) != len(reqs) {
			t.Fatalf("%s: %d results for %d requests", tc.name, len(got), len(reqs))
		}
		for i, q := range reqs {
			want, err := tc.api.EvalAt(q.Pre, q.Point)
			if err != nil {
				t.Fatalf("%s: EvalAt(%d): %v", tc.name, q.Pre, err)
			}
			if got[i].Err != "" || got[i].Val != want {
				t.Fatalf("%s: member %d = (%d, %q), want (%d, \"\")",
					tc.name, i, got[i].Val, got[i].Err, want)
			}
		}
	}
}

// TestEvalBatchPartialErrors: a missing node voids only its own member.
func TestEvalBatchPartialErrors(t *testing.T) {
	fx := newFixture(t, testXML)
	rem := NewRemote(fx.rmiCli)
	for _, tc := range []struct {
		name string
		api  ServerAPI
	}{
		{"local", fx.server},
		{"remote", rem},
	} {
		v := fx.val(t, "site")
		got, err := tc.api.EvalBatch([]EvalRequest{
			{Pre: 1, Point: v},
			{Pre: 99999, Point: v},
			{Pre: 2, Point: v},
		})
		if err != nil {
			t.Fatalf("%s: EvalBatch: %v", tc.name, err)
		}
		if got[0].Err != "" || got[2].Err != "" {
			t.Fatalf("%s: healthy members errored: %+v", tc.name, got)
		}
		if got[1].Err == "" || !strings.Contains(got[1].Err, "not found") {
			t.Fatalf("%s: missing node gave %q, want a not-found error", tc.name, got[1].Err)
		}
	}
}

// TestEvalBatchCacheInteraction: results must be identical whatever the
// decoded-polynomial cache does — disabled, thrashing (evictions on a
// tiny cache), or warm from a previous batch.
func TestEvalBatchCacheInteraction(t *testing.T) {
	fx := newFixture(t, testXML)
	checks := allChecks(t, fx)
	reqs := make([]EvalRequest, len(checks))
	for i, c := range checks {
		reqs[i] = EvalRequest(c)
	}
	want, err := fx.server.EvalBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, cacheSize := range []int{0, 2, 1024} {
		sf := NewServerFilter(fx.server.st, fx.r, cacheSize)
		for round := 0; round < 2; round++ { // second round hits whatever is cached
			got, err := sf.EvalBatch(reqs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("cache=%d round %d: member %d = %+v, want %+v",
						cacheSize, round, i, got[i], want[i])
				}
			}
		}
	}
}

// TestContainsBatchMatchesContains: the batched client test must agree
// with N individual Contains calls and count the same work.
func TestContainsBatchMatchesContains(t *testing.T) {
	fx := newFixture(t, testXML)
	for _, tc := range []struct {
		name string
		cli  *Client
	}{
		{"local", fx.local},
		{"remote", fx.remote},
	} {
		checks := allChecks(t, fx)
		before := tc.cli.Counters.Snapshot()
		got, err := tc.cli.ContainsBatch(checks)
		if err != nil {
			t.Fatalf("%s: ContainsBatch: %v", tc.name, err)
		}
		d := tc.cli.Counters.Snapshot().Sub(before)
		if d.Evaluations != int64(len(checks)) {
			t.Fatalf("%s: batch counted %d evaluations, want %d", tc.name, d.Evaluations, len(checks))
		}
		for i, c := range checks {
			want, err := tc.cli.Contains(c.Pre, c.Point)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Fatalf("%s: member %d (pre=%d) = %v, want %v", tc.name, i, c.Pre, got[i], want)
			}
		}
	}
}

// TestEqualsBatchMatchesEquals: same for the strict test, including the
// reconstruction accounting.
func TestEqualsBatchMatchesEquals(t *testing.T) {
	fx := newFixture(t, testXML)
	for _, tc := range []struct {
		name string
		cli  *Client
	}{
		{"local", fx.local},
		{"remote", fx.remote},
	} {
		checks := allChecks(t, fx)
		before := tc.cli.Counters.Snapshot()
		got, err := tc.cli.EqualsBatch(checks)
		if err != nil {
			t.Fatalf("%s: EqualsBatch: %v", tc.name, err)
		}
		batchRecons := tc.cli.Counters.Snapshot().Sub(before).Reconstructions

		before = tc.cli.Counters.Snapshot()
		for i, c := range checks {
			want, err := tc.cli.Equals(c.Pre, c.Point)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Fatalf("%s: member %d (pre=%d) = %v, want %v", tc.name, i, c.Pre, got[i], want)
			}
		}
		seqRecons := tc.cli.Counters.Snapshot().Sub(before).Reconstructions
		if batchRecons != seqRecons {
			t.Fatalf("%s: batch counted %d reconstructions, sequential %d", tc.name, batchRecons, seqRecons)
		}
	}
}

// TestNavigationBatches: ChildrenBatch/DescendantsBatch must return the
// per-call results in request order.
func TestNavigationBatches(t *testing.T) {
	fx := newFixture(t, testXML)
	for _, tc := range []struct {
		name string
		cli  *Client
	}{
		{"local", fx.local},
		{"remote", fx.remote},
	} {
		var pres []int64
		var spans []Span
		metas := make(map[int64]NodeMeta)
		for pre := int64(1); pre <= fx.doc.Count; pre++ {
			m, err := tc.cli.Node(pre)
			if err != nil {
				t.Fatal(err)
			}
			metas[pre] = m
			pres = append(pres, pre)
			spans = append(spans, Span{Pre: m.Pre, Post: m.Post})
		}
		kidLists, err := tc.cli.ChildrenBatch(pres)
		if err != nil {
			t.Fatal(err)
		}
		descLists, err := tc.cli.DescendantsBatch(spans)
		if err != nil {
			t.Fatal(err)
		}
		for i, pre := range pres {
			kids, err := tc.cli.Children(pre)
			if err != nil {
				t.Fatal(err)
			}
			if len(kids) != len(kidLists[i]) {
				t.Fatalf("%s: ChildrenBatch[%d] = %d kids, want %d", tc.name, i, len(kidLists[i]), len(kids))
			}
			for j := range kids {
				if kids[j] != kidLists[i][j] {
					t.Fatalf("%s: ChildrenBatch[%d][%d] = %+v, want %+v", tc.name, i, j, kidLists[i][j], kids[j])
				}
			}
			desc, err := tc.cli.Descendants(metas[pre].Pre, metas[pre].Post)
			if err != nil {
				t.Fatal(err)
			}
			if len(desc) != len(descLists[i]) {
				t.Fatalf("%s: DescendantsBatch[%d] = %d nodes, want %d", tc.name, i, len(descLists[i]), len(desc))
			}
		}
	}
}

// TestRemoteBatchRoundTrips: one batch = one round-trip, whatever its
// size.
func TestRemoteBatchRoundTrips(t *testing.T) {
	fx := newFixture(t, testXML)
	rem := NewRemote(fx.rmiCli)
	cli := NewClient(rem, fx.scheme)
	checks := allChecks(t, fx)
	if _, err := cli.ContainsBatch(checks); err != nil {
		t.Fatal(err)
	}
	if got := rem.EvalRoundTrips(); got != 1 {
		t.Fatalf("%d checks cost %d evaluation round-trips, want 1", len(checks), got)
	}
	if _, err := cli.EqualsBatch(checks[:10]); err != nil {
		t.Fatal(err)
	}
	counts := rem.CallCounts()
	if n := counts[methodNodePolysPage]; n != 1 {
		t.Fatalf("EqualsBatch cost %d poly round-trips, want 1", n)
	}
	if counts[methodPoly] != 0 || counts[methodChildrenPolys] != 0 {
		t.Fatalf("batched equals fell back to per-call fetches: %v", counts)
	}
}

// TestBatchChunking: oversized batches are split into frame-bounded
// chunks transparently — same answers, one round-trip per chunk.
func TestBatchChunking(t *testing.T) {
	fx := newFixture(t, testXML)
	oldEval, oldPoly, oldMeta := evalChunkSize, polyChunkSize, metaChunkSize
	evalChunkSize, polyChunkSize, metaChunkSize = 7, 3, 4
	t.Cleanup(func() { evalChunkSize, polyChunkSize, metaChunkSize = oldEval, oldPoly, oldMeta })

	rem := NewRemote(fx.rmiCli)
	cli := NewClient(rem, fx.scheme)
	checks := allChecks(t, fx)

	got, err := cli.ContainsBatch(checks)
	if err != nil {
		t.Fatal(err)
	}
	wantRtts := int64((len(checks) + 6) / 7)
	if rtts := rem.EvalRoundTrips(); rtts != wantRtts {
		t.Fatalf("%d checks over chunk size 7 cost %d round-trips, want %d", len(checks), rtts, wantRtts)
	}
	for i, c := range checks {
		want, err := fx.local.Contains(c.Pre, c.Point)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("chunked member %d (pre=%d) = %v, want %v", i, c.Pre, got[i], want)
		}
	}

	eqGot, err := cli.EqualsBatch(checks[:10])
	if err != nil {
		t.Fatal(err)
	}
	counts := rem.CallCounts()
	if n := counts[methodNodePolysPage]; n != 4 { // ceil(10/3)
		t.Fatalf("10 equals over chunk size 3 cost %d poly round-trips, want 4", n)
	}
	for i, c := range checks[:10] {
		want, err := fx.local.Equals(c.Pre, c.Point)
		if err != nil {
			t.Fatal(err)
		}
		if eqGot[i] != want {
			t.Fatalf("chunked equals member %d = %v, want %v", i, eqGot[i], want)
		}
	}
}

// TestParallelFor: the pool helper must cover every index exactly once
// for any worker/size combination.
func TestParallelFor(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, workers := range []int{1, 2, 8, 200} {
			hits := make([]int32, n)
			parallelFor(n, workers, func(i int) { hits[i]++ })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d hit %d times", n, workers, i, h)
				}
			}
		}
	}
}
