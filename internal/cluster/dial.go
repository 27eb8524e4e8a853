package cluster

import (
	"errors"
	"fmt"
	"io"

	"encshare/internal/filter"
	"encshare/internal/rmi"
	"encshare/internal/server"
)

// dialServer dials one server for the given tenant: the connection's
// frames carry the tenant name, and for a non-default tenant the
// server must positively confirm it hosts that tenant (a single-table
// server would otherwise answer every tenant's frames from its global
// handler set).
func dialServer(addr, tenant string) (*rmi.Client, error) {
	cli, err := rmi.Dial(addr)
	if err != nil {
		return nil, err
	}
	if tenant != "" {
		cli.SetTenant(tenant)
		if _, err := server.ResolveTenant(cli); err != nil {
			cli.Close()
			return nil, err
		}
	}
	return cli, nil
}

// Dial connects to every listed server with default options — see
// DialWith.
func Dial(addrs []string) (*Filter, error) { return DialWith(addrs, Options{}) }

// DialWith connects to every listed server, asks each for the pre range
// it holds (filter.RangeAPI — no manifest file needed on the query
// side), and assembles the cluster filter. Servers reporting the SAME
// range are replicas of one shard (byte-identical copies of the same
// slice) and become one replica group with failover between them; the
// distinct ranges must tile a contiguous pre interval. The address list
// can therefore be flat — shards and their replicas in any order. A
// server that cannot be reached, refuses this build's frame version
// (*rmi.VersionError), or reports a range that neither matches nor
// tiles with the others fails the dial with a ShardError naming it;
// with Options.TolerateUnreachable, unreachable servers are skipped
// instead (an up-but-incompatible server still fails the dial), so
// sessions can start while a replica is down.
func DialWith(addrs []string, opts Options) (*Filter, error) {
	var closers []io.Closer
	closeAll := func() {
		for _, c := range closers {
			c.Close()
		}
	}
	type group struct {
		rng  Range
		reps []Replica
	}
	var groups []*group
	byRange := make(map[Range]*group)
	for i, addr := range addrs {
		cli, err := dialServer(addr, opts.Tenant)
		if err != nil {
			if opts.TolerateUnreachable && !isConfigErr(err) {
				continue
			}
			closeAll()
			return nil, &ShardError{Shard: i, Addr: addr, Err: err}
		}
		closers = append(closers, cli)
		rem := filter.NewRemote(cli)
		pr, err := rem.PreRange()
		if err != nil {
			closeAll()
			return nil, &ShardError{Shard: i, Addr: addr, Err: err}
		}
		r := Range{Lo: pr.Lo, Hi: pr.Hi}
		g := byRange[r]
		if g == nil {
			g = &group{rng: r}
			byRange[r] = g
			groups = append(groups, g)
		}
		g.reps = append(g.reps, Replica{Addr: addr, Conn: rem})
	}
	if len(groups) == 0 {
		closeAll()
		return nil, fmt.Errorf("cluster: no reachable servers among %d addresses", len(addrs))
	}
	shards := make([]Shard, len(groups))
	for i, g := range groups {
		shards[i] = Shard{Addr: g.reps[0].Addr, Range: g.rng, Replicas: g.reps}
	}
	f, err := NewWith(shards, opts)
	if err != nil {
		closeAll()
		return nil, err
	}
	f.closers = closers
	// Best-effort epoch pin: reads are fenced from the first frame when
	// the servers are writable; read-only servers (and transient probe
	// failures) leave the session unpinned.
	_ = f.RefreshEpochs()
	return f, nil
}

// isConfigErr reports a tenant or frame-version rejection from an
// otherwise healthy server — never skipped by TolerateUnreachable,
// because the server is up and the deployment is wrong.
func isConfigErr(err error) bool {
	var te *server.TenantError
	var ve *rmi.VersionError
	return errors.As(err, &te) || errors.As(err, &ve)
}

// AddReplica dials addr and joins it to the live session's shard group
// whose pre range it reports — the topology-change seam replication
// left open: a freshly provisioned replica starts taking traffic
// without the session redialing. The server must hold exactly the same
// range as an existing group (byte-identical replicas are the only
// safe live addition; re-sharding is a different operation), and must
// serve the session's tenant. Returns the index of the shard group
// joined.
func (f *Filter) AddReplica(addr string) (int, error) {
	cli, err := dialServer(addr, f.opts.Tenant)
	if err != nil {
		return 0, fmt.Errorf("cluster: adding replica %s: %w", addr, err)
	}
	rem := filter.NewRemote(cli)
	pr, err := rem.PreRange()
	if err != nil {
		cli.Close()
		return 0, fmt.Errorf("cluster: adding replica %s: %w", addr, err)
	}
	r := Range{Lo: pr.Lo, Hi: pr.Hi}
	for si, sh := range f.shards {
		if sh.rangeOf() == r {
			if tr := f.tracer.Load(); tr != nil {
				rem.SetTracer(tr, si, addr)
			}
			sh.addReplica(&replica{addr: addr, conn: rem})
			f.addCloser(cli)
			return si, nil
		}
	}
	// No exact match: a replica that missed renumbering batches reports
	// a range lagging its group's by the missed shifts. If it is writable
	// it also reports WHERE its log stopped, and this
	// session's redelivery backlog records what each shard's range was
	// at every retained log position — so the replica is adopted into
	// the one shard whose recorded range at that position equals its
	// reported range exactly. Shard ranges are disjoint at every log
	// position, so the match is unambiguous where an overlap heuristic
	// is not: a replica that missed enough renumbering can overlap a
	// neighbor shard more than its own group, and joining the wrong
	// group would apply foreign batches to its store and serve wrong
	// rows. A replica whose position fell out of the window is refused —
	// SyncReplicas could not catch it up anyway; re-seed it from a
	// sibling.
	if info, eerr := rem.Epoch(); eerr == nil {
		lagged := Range{Lo: info.Range.Lo, Hi: info.Range.Hi}
		if si, ok := f.shardAtLogPos(lagged, info.LastSeq); ok {
			if tr := f.tracer.Load(); tr != nil {
				rem.SetTracer(tr, si, addr)
			}
			f.shards[si].addReplica(&replica{addr: addr, conn: rem})
			f.addCloser(cli)
			return si, nil
		}
	}
	cli.Close()
	return 0, fmt.Errorf("cluster: replica %s reports range [%d, %d], which matches no shard group", addr, r.Lo, r.Hi)
}

// shardAtLogPos returns the shard whose range at log position seq was
// exactly r, consulting each shard's recorded write history (see
// shardState.rangeAt). At most one shard can match — ranges tile the
// pre axis disjointly at every position.
func (f *Filter) shardAtLogPos(r Range, seq uint64) (int, bool) {
	f.mutMu.mu.Lock()
	defer f.mutMu.mu.Unlock()
	for si, sh := range f.shards {
		if !sh.seqOK {
			continue
		}
		if g, ok := sh.rangeAt(seq); ok && g == r {
			return si, true
		}
	}
	return -1, false
}
