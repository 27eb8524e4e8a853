package cluster_test

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"

	"encshare/internal/cluster"
	"encshare/internal/filter"
	"encshare/internal/rmi"
	"encshare/internal/server"
	"encshare/internal/store"
)

// shardedTCP serves each store over its own TCP listener and returns
// the addresses plus a per-server shutdown hook.
func shardedTCP(t *testing.T, fx *fixture, stores []*store.Store) (addrs []string, stop []func()) {
	t.Helper()
	for _, st := range stores {
		srv := rmi.NewServer()
		filter.RegisterServer(srv, filter.NewServerFilter(st, fx.r, 256))
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go srv.Serve(l)
		addrs = append(addrs, l.Addr().String())
		stop = append(stop, func() { l.Close(); srv.Shutdown() })
	}
	return addrs, stop
}

// TestAddReplicaLiveSession pins the live-topology seam: a session
// dialed against one replica per shard gains a second replica of shard
// 0 via AddReplica, the new replica serves traffic without a redial,
// and after the ORIGINAL shard-0 server dies the session still answers
// — only the added replica can be serving that shard then.
func TestAddReplicaLiveSession(t *testing.T) {
	fx := xmarkFixture(t, 0.02, 11)
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

	addrs, stop := shardedTCP(t, fx, stores)
	f, err := cluster.Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	before, err := f.Count()
	if err != nil {
		t.Fatal(err)
	}

	// A replica whose range matches no shard group is rejected.
	wholeAddrs, _ := shardedTCP(t, fx, []*store.Store{fx.st})
	if _, err := f.AddReplica(wholeAddrs[0]); err == nil || !strings.Contains(err.Error(), "matches no shard group") {
		t.Fatalf("mismatched range: got %v", err)
	}

	// Provision a second replica of shard 0 (same slice, new listener)
	// and join it live.
	newAddrs, _ := shardedTCP(t, fx, stores[:1])
	si, err := f.AddReplica(newAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	if si != 0 {
		t.Fatalf("joined shard %d, want 0", si)
	}
	if got := f.Replicas(); got[0] != 2 || got[1] != 1 {
		t.Fatalf("Replicas = %v, want [2 1]", got)
	}

	// Round-robin now spreads shard-0 frames over both replicas: after
	// a few queries the new connection must have carried traffic.
	for i := 0; i < 4; i++ {
		if n, err := f.Count(); err != nil || n != before {
			t.Fatalf("count after join: %d, %v", n, err)
		}
	}

	// Kill the original shard-0 server: the session keeps answering
	// through the added replica, without redial.
	stop[0]()
	var after int64
	for i := 0; i < 3; i++ { // retries may trip the breaker first
		after, err = f.Count()
		if err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("count after original replica died: %v", err)
	}
	if after != before {
		t.Fatalf("count changed after failover to added replica: %d != %d", after, before)
	}
}

// otherVersionServer serves the fixture over TCP but answers every frame
// the way a server built with the next frame version does: with the
// version refusal. It returns the address.
func otherVersionServer(t *testing.T, fx *fixture) string {
	t.Helper()
	srv := rmi.NewServer()
	filter.RegisterServer(srv, filter.NewServerFilter(fx.st, fx.r, 256))
	srv.SetGate(func(string, string, uint64) (func(), error) {
		return nil, fmt.Errorf("frame version refused, server speaks version %d", rmi.FrameVersion+1)
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close(); srv.Shutdown() })
	go srv.Serve(l)
	return l.Addr().String()
}

// TestDialRefusesIncompatibleServer: a server that is up but cannot
// serve this session fails the dial loudly, even with
// TolerateUnreachable — the server is up, the deployment is wrong.
// Naming a tenant against single-table servers (which would answer any
// tenant from their one table) fails with a TenantError; a server
// speaking another frame version fails with a *rmi.VersionError inside
// a ShardError naming its address, and the error is not retryable.
func TestDialRefusesIncompatibleServer(t *testing.T) {
	fx := xmarkFixture(t, 0.02, 11)
	addrs, _ := shardedTCP(t, fx, []*store.Store{fx.st})
	for _, tolerate := range []bool{false, true} {
		_, err := cluster.DialWith(addrs, cluster.Options{Tenant: "alpha", TolerateUnreachable: tolerate})
		var te *server.TenantError
		if !errors.As(err, &te) {
			t.Fatalf("tolerate=%v: got %v, want a TenantError", tolerate, err)
		}
	}
	// Without a tenant the same servers dial fine.
	f, err := cluster.DialWith(addrs, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()

	bad := otherVersionServer(t, fx)
	for _, opts := range []cluster.Options{{}, {TolerateUnreachable: true}} {
		_, err := cluster.DialWith([]string{addrs[0], bad}, opts)
		var se *cluster.ShardError
		var ve *rmi.VersionError
		if !errors.As(err, &se) || se.Addr != bad || !errors.As(err, &ve) {
			t.Fatalf("%+v: got %v, want a ShardError naming %s around a VersionError", opts, err, bad)
		}
		if ve.Client != rmi.FrameVersion || ve.Server != rmi.FrameVersion+1 {
			t.Fatalf("%+v: VersionError %+v", opts, ve)
		}
		if filter.Retryable(err) {
			t.Fatalf("%+v: version refusal classified retryable", opts)
		}
	}
}

// TestDialTenantRuntime dials a multi-tenant runtime by tenant name
// and checks tenant routing end to end over TCP, including the
// unknown-tenant rejection.
func TestDialTenantRuntime(t *testing.T) {
	fx := xmarkFixture(t, 0.02, 11)
	rt := server.New(server.Config{})
	if err := rt.AttachStore(server.Tenant{Name: "auction", P: 251}, fx.st); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go rt.Serve(l)
	addr := l.Addr().String()

	f, err := cluster.DialWith([]string{addr}, cluster.Options{Tenant: "auction"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want, _ := fx.st.Count()
	if n, err := f.Count(); err != nil || n != want {
		t.Fatalf("tenant-routed count = %d, %v; want %d", n, err, want)
	}

	if _, err := cluster.DialWith([]string{addr}, cluster.Options{Tenant: "nobody"}); err == nil {
		t.Fatal("dial with unknown tenant succeeded")
	}
}
