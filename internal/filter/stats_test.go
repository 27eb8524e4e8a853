package filter

import (
	"testing"
)

// TestServerStatsLocal checks the counter plumbing against the
// in-process filter: misses+decodes on first touch, hits on repeats.
func TestServerStatsLocal(t *testing.T) {
	fx := newFixture(t, testXML)
	v := fx.val(t, "item")

	before, err := fx.local.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	root, err := fx.local.Root()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := fx.local.Contains(root.Pre, v); err != nil {
			t.Fatal(err)
		}
	}
	after, err := fx.local.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	d := ServerStats{
		Evals:       after.Evals - before.Evals,
		CacheHits:   after.CacheHits - before.CacheHits,
		CacheMisses: after.CacheMisses - before.CacheMisses,
		Decodes:     after.Decodes - before.Decodes,
	}
	if d.Evals != 5 {
		t.Fatalf("Evals delta = %d, want 5", d.Evals)
	}
	if d.Decodes != 1 {
		t.Fatalf("Decodes delta = %d, want 1 (one miss, then cached)", d.Decodes)
	}
	if d.CacheMisses != 1 || d.CacheHits != 4 {
		t.Fatalf("cache delta = %d hits / %d misses, want 4/1", d.CacheHits, d.CacheMisses)
	}
}

// TestServerStatsRemote checks the stats travel over the wire and that
// the remote numbers equal the server's own counters.
func TestServerStatsRemote(t *testing.T) {
	fx := newFixture(t, testXML)
	v := fx.val(t, "person")
	root, err := fx.remote.Root()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.remote.Contains(root.Pre, v); err != nil {
		t.Fatal(err)
	}
	got, err := fx.remote.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fx.server.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("remote stats %+v != server stats %+v", got, want)
	}
	if got.Evals == 0 {
		t.Fatal("remote stats all zero after an evaluation")
	}
}
