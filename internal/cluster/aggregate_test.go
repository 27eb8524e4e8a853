package cluster_test

import (
	"errors"
	"testing"
	"time"

	"encshare/internal/cluster"
	"encshare/internal/filter"
	"encshare/internal/gf"
	"encshare/internal/ring"
	"encshare/internal/xmldoc"
)

// itemPres returns the sorted pre positions of every node named name.
func (fx *fixture) itemPres(name string) []int64 {
	var out []int64
	fx.doc.Walk(func(n *xmldoc.Node) bool {
		if n.Name == name {
			out = append(out, n.Pre)
		}
		return true
	})
	return out
}

// aggregateOracle is the pre-aggregate ground truth: reconstruct every
// row client-side against the single-store server and sum.
func aggregateOracle(t testing.TB, fx *fixture, pres []int64) ring.Poly {
	t.Helper()
	cli := filter.NewClient(filter.NewServerFilter(fx.st, fx.r, 1024), fx.scheme)
	total := fx.r.NewPoly()
	for _, pre := range pres {
		p, err := cli.Reconstruct(pre)
		if err != nil {
			t.Fatal(err)
		}
		fx.r.AddInPlace(total, p)
	}
	return total
}

func (fx *fixture) mapVal(t testing.TB, name string) gf.Elem {
	t.Helper()
	v, err := fx.m.Value(name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestClusterAggregateParity: for several cluster widths, a verified
// SUM/COUNT fold across shards equals the single-server oracle, and the
// whole fold costs exactly ONE exchange on every shard that owns rows —
// the O(shards) wire profile the frames exist for.
func TestClusterAggregateParity(t *testing.T) {
	fx := xmarkFixture(t, 0.05, 23)
	pres := fx.itemPres("item")
	if len(pres) < 20 {
		t.Fatalf("fixture has only %d items", len(pres))
	}
	point := fx.mapVal(t, "item")
	want := aggregateOracle(t, fx, pres)

	for _, n := range []int{1, 2, 3, 5} {
		cf := fx.clusterOf(t, n)
		cli := filter.NewClient(cf, fx.scheme)
		before := cf.ShardRoundTrips()
		agg, err := cli.AggregateFold(pres, filter.AggSum, filter.AggregateOptions{CheckPoint: point})
		if err != nil {
			t.Fatalf("%d shards: %v", n, err)
		}
		if !fx.r.Equal(agg.Sum, want) {
			t.Fatalf("%d shards: cluster fold != single-server oracle", n)
		}
		if agg.Count != int64(len(pres)) || !agg.Verified {
			t.Fatalf("%d shards: count=%d verified=%v", n, agg.Count, agg.Verified)
		}
		after := cf.ShardRoundTrips()
		for si := range after {
			if d := after[si] - before[si]; d > 1 {
				t.Errorf("%d shards: shard %d cost %d exchanges, want ≤1", n, si, d)
			}
		}
	}
}

// tamperConn corrupts one aggregate chunk of its shard's replies.
type tamperConn struct {
	cluster.Conn
	mutate func(*filter.AggregateReply)
}

func (c *tamperConn) AggregateBatch(req filter.AggregateRequest) (filter.AggregateReply, error) {
	reply, err := c.Conn.AggregateBatch(req)
	if err == nil {
		c.mutate(&reply)
	}
	return reply, err
}

// twoShardCluster builds a 2-shard cluster over the fixture store, with
// hooks to wrap each shard's connection.
func (fx *fixture) twoShardCluster(t *testing.T, wrap func(si int, c cluster.Conn) cluster.Conn) *cluster.Filter {
	t.Helper()
	lo, hi, err := fx.st.MinMaxPre()
	if err != nil {
		t.Fatal(err)
	}
	ranges, err := cluster.PartitionEven(lo, hi, 2)
	if err != nil {
		t.Fatal(err)
	}
	stores, cleanup, err := cluster.SplitStore(fx.st, ranges)
	if err != nil {
		cleanup()
		t.Fatal(err)
	}
	t.Cleanup(cleanup)
	shards := make([]cluster.Shard, 2)
	for i, sst := range stores {
		shards[i] = cluster.Shard{
			Addr:  []string{"shard-alpha", "shard-beta"}[i],
			Range: ranges[i],
			Conn:  wrap(i, filter.NewServerFilter(sst, fx.r, 1024)),
		}
	}
	cf, err := cluster.New(shards)
	if err != nil {
		t.Fatal(err)
	}
	return cf
}

// TestClusterAggregateOriginNamesShard: a cluster fold whose chunk
// fails verification must say WHICH shard misbehaved, so an operator
// can quarantine it.
func TestClusterAggregateOriginNamesShard(t *testing.T) {
	fx := xmarkFixture(t, 0.05, 23)
	// Corrupt the field count only: the chunk still tiles structurally
	// (the replica op checks Σ Rows, so a Rows lie would just fail over),
	// and the lie is caught by the client's count cross-check instead.
	corrupt := func(r *filter.AggregateReply) {
		if len(r.Chunks) > 0 {
			r.Chunks[0].Count++
		}
	}
	cf := fx.twoShardCluster(t, func(si int, c cluster.Conn) cluster.Conn {
		if si == 1 {
			return &tamperConn{Conn: c, mutate: corrupt}
		}
		return c
	})
	cli := filter.NewClient(cf, fx.scheme)
	pres := fx.itemPres("item")
	_, err := cli.AggregateFold(pres, filter.AggSum, filter.AggregateOptions{CheckPoint: fx.mapVal(t, "item")})
	var ie *filter.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("corrupted shard: err = %v, want IntegrityError", err)
	}
	if ie.Origin != "shard-beta" {
		t.Fatalf("IntegrityError names shard %q, want shard-beta", ie.Origin)
	}
}

// TestChaosReplicaLossMidAggregate is the aggregate chaos test: on a
// 3-shard × 2-replica cluster one replica of every shard dies on its
// first aggregate frame, the frames fail over to the siblings, and the
// verified fold still equals the single-server oracle exactly.
func TestChaosReplicaLossMidAggregate(t *testing.T) {
	fx := xmarkFixture(t, 0.05, 31)
	pres := fx.itemPres("item")
	point := fx.mapVal(t, "item")
	want := aggregateOracle(t, fx, pres)

	// Every shard's first replica dies on its very first request frame,
	// so the aggregate frame itself is what fails over.
	killAfter := map[[2]int]int{{0, 0}: 0, {1, 0}: 0, {2, 0}: 0}
	cf := fx.replicatedClusterOf(t, 3, 2, killAfter, cluster.Options{})
	cli := filter.NewClient(cf, fx.scheme)

	agg, err := cli.AggregateFold(pres, filter.AggSum, filter.AggregateOptions{CheckPoint: point})
	if err != nil {
		t.Fatalf("aggregate across replica deaths: %v", err)
	}
	if !fx.r.Equal(agg.Sum, want) {
		t.Fatal("failover fold != oracle")
	}
	if agg.Count != int64(len(pres)) || !agg.Verified {
		t.Fatalf("count=%d verified=%v", agg.Count, agg.Verified)
	}
	if cf.Failovers() == 0 {
		t.Fatal("killed replicas but Failovers() = 0")
	}

	// The fold is repeatable on the surviving replicas.
	again, err := cli.AggregateFold(pres, filter.AggSum, filter.AggregateOptions{CheckPoint: point})
	if err != nil {
		t.Fatal(err)
	}
	if !fx.r.Equal(again.Sum, want) {
		t.Fatal("second fold after failover != oracle")
	}
}

// slowAggConn delays aggregate frames past the hedge trigger, so the
// frame is duplicated onto the sibling and both replicas answer.
type slowAggConn struct {
	cluster.Conn
	d time.Duration
}

func (c *slowAggConn) AggregateBatch(req filter.AggregateRequest) (filter.AggregateReply, error) {
	time.Sleep(c.d)
	return c.Conn.AggregateBatch(req)
}

// TestAggregateHedgeDuplicateFrames: with hedging on, a slow replica
// causes the SAME aggregate frame to run on both replicas. Folds are
// pure functions of immutable shares, so duplicated frames must change
// nothing: every round returns the oracle value.
func TestAggregateHedgeDuplicateFrames(t *testing.T) {
	fx := xmarkFixture(t, 0.02, 7)
	sf := filter.NewServerFilter(fx.st, fx.r, 1024)
	lo, hi, err := fx.st.MinMaxPre()
	if err != nil {
		t.Fatal(err)
	}
	cf, err := cluster.NewWith([]cluster.Shard{{
		Range: cluster.Range{Lo: lo, Hi: hi},
		Replicas: []cluster.Replica{
			{Addr: "slow", Conn: &slowAggConn{Conn: sf, d: 20 * time.Millisecond}},
			{Addr: "fast", Conn: sf},
		},
	}}, cluster.Options{Hedge: true, HedgeAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cli := filter.NewClient(cf, fx.scheme)
	pres := fx.itemPres("item")
	point := fx.mapVal(t, "item")
	want := aggregateOracle(t, fx, pres)
	// Several rounds so the round-robin starts on the slow replica at
	// least once and the hedge duplicates the frame.
	for round := 0; round < 4; round++ {
		agg, err := cli.AggregateFold(pres, filter.AggSum, filter.AggregateOptions{CheckPoint: point})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !fx.r.Equal(agg.Sum, want) || agg.Count != int64(len(pres)) {
			t.Fatalf("round %d: hedged fold diverged from oracle", round)
		}
	}
	if cf.Hedges() == 0 {
		t.Fatal("slow replica never triggered a hedge")
	}
}
