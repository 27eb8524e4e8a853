package filter

import (
	"sync"
	"sync/atomic"
	"time"

	"encshare/internal/gf"
	"encshare/internal/obs"
	"encshare/internal/rmi"
)

// RMI method names of the filter service. Client proxy and server binding
// must agree; they are part of the wire protocol, whose one version is
// rmi.FrameVersion. The per-call methods are the paper's protocol; the
// *Batch and *Page methods carry a whole engine step's work in one
// frame, paged by reply bytes where a member can be arbitrarily wide
// (see paged.go).
const (
	methodRoot          = "filter.Root"
	methodNode          = "filter.Node"
	methodChildren      = "filter.Children"
	methodDescendants   = "filter.Descendants"
	methodEvalAt        = "filter.EvalAt"
	methodPoly          = "filter.Poly"
	methodChildrenPolys = "filter.ChildrenPolys"
	methodCount         = "filter.Count"

	methodEvalBatch     = "filter.EvalBatch"
	methodNodeBatch     = "filter.NodeBatch"
	methodChildrenBatch = "filter.ChildrenBatch"

	methodDescendantsPage      = "filter.DescendantsBatchPage"
	methodNodePolysPage        = "filter.NodePolysBatchPage"
	methodNodePolysPartialPage = "filter.NodePolysPartialPage"
	methodPreRange             = "filter.PreRange"

	methodServerStats    = "filter.ServerStats"
	methodAggregateBatch = "filter.AggregateBatch"

	// The write path (see mutate.go and lease.go). A read-only server
	// registers none of these.
	methodMutate       = "filter.Mutate"
	methodEpoch        = "filter.Epoch"
	methodAcquireLease = "filter.AcquireLease"
	methodReleaseLease = "filter.ReleaseLease"
	methodMutateLeased = "filter.MutateLeased"
)

type descArgs struct{ Pre, Post int64 }

type evalArgs struct {
	Pre   int64
	Point gf.Elem
}

// RegisterServer exposes a ServerAPI (normally a *ServerFilter) on an rmi
// server — the paper's server-side RMI endpoint. The optional shard
// (PartialAPI, RangeAPI) and write (MutableAPI, LeaseAPI) extensions are
// registered when the API implements them; without the write methods
// the server is read-only. The methods land in the global handler set,
// which is the single-tenant layout; multi-tenant runtimes use
// RegisterServerAt per tenant.
func RegisterServer(srv *rmi.Server, api ServerAPI) {
	RegisterServerAt(srv, "", api)
}

// RegisterServerAt is RegisterServer into the named tenant's handler
// set: calls carrying that tenant in their frame header dispatch to
// this api, so one rmi server hosts many independent filter backends.
func RegisterServerAt(srv *rmi.Server, tenant string, api ServerAPI) {
	rmi.HandleFuncAt(srv, tenant, methodRoot, func(struct{}) (NodeMeta, error) {
		return api.Root()
	})
	rmi.HandleFuncAt(srv, tenant, methodNode, api.Node)
	rmi.HandleFuncAt(srv, tenant, methodChildren, api.Children)
	rmi.HandleFuncAt(srv, tenant, methodDescendants, func(a descArgs) ([]NodeMeta, error) {
		return api.Descendants(a.Pre, a.Post)
	})
	rmi.HandleFuncAt(srv, tenant, methodEvalAt, func(a evalArgs) (gf.Elem, error) {
		return api.EvalAt(a.Pre, a.Point)
	})
	rmi.HandleFuncAt(srv, tenant, methodPoly, api.Poly)
	rmi.HandleFuncAt(srv, tenant, methodChildrenPolys, api.ChildrenPolys)
	rmi.HandleFuncAt(srv, tenant, methodCount, func(struct{}) (int64, error) {
		return api.Count()
	})
	rmi.HandleFuncAt(srv, tenant, methodEvalBatch, api.EvalBatch)
	rmi.HandleFuncAt(srv, tenant, methodNodeBatch, api.NodeBatch)
	rmi.HandleFuncAt(srv, tenant, methodChildrenBatch, api.ChildrenBatch)
	rmi.HandleFuncAt(srv, tenant, methodDescendantsPage, func(a descPageArgs) (descPageReply, error) {
		return pageDescendants(api.DescendantsBatch, a)
	})
	rmi.HandleFuncAt(srv, tenant, methodNodePolysPage, func(a bundlePageArgs) (bundlePage[NodePolys], error) {
		return pageBundles(a, api.NodePolysBatch, nodePolysWire)
	})
	rmi.HandleFuncAt(srv, tenant, methodServerStats, func(struct{}) (ServerStats, error) {
		return api.ServerStats()
	})
	rmi.HandleFuncAt(srv, tenant, methodAggregateBatch, api.AggregateBatch)
	if p, ok := api.(PartialAPI); ok {
		rmi.HandleFuncAt(srv, tenant, methodNodePolysPartialPage, func(a bundlePageArgs) (bundlePage[PartialNodePolys], error) {
			return pageBundles(a, p.NodePolysPartial, partialNodePolysWire)
		})
	}
	if ra, ok := api.(RangeAPI); ok {
		rmi.HandleFuncAt(srv, tenant, methodPreRange, func(struct{}) (PreRange, error) {
			return ra.PreRange()
		})
	}
	if ma, ok := api.(MutableAPI); ok {
		rmi.HandleFuncAt(srv, tenant, methodMutate, ma.Mutate)
		rmi.HandleFuncAt(srv, tenant, methodEpoch, func(struct{}) (EpochInfo, error) {
			return ma.Epoch()
		})
	}
	if la, ok := api.(LeaseAPI); ok {
		rmi.HandleFuncAt(srv, tenant, methodAcquireLease, la.AcquireLease)
		rmi.HandleFuncAt(srv, tenant, methodReleaseLease, func(id uint64) (struct{}, error) {
			return struct{}{}, la.ReleaseLease(id)
		})
		rmi.HandleFuncAt(srv, tenant, methodMutateLeased, la.MutateLeased)
	}
}

// Remote is a ServerAPI proxy over an rmi client connection. It counts
// its round-trips per method (see CallCounts), which is how the tests
// verify the one-round-trip-per-step property.
type Remote struct {
	c *rmi.Client

	mu     sync.Mutex
	counts map[string]int64

	// trc is nil until SetTracer attaches one; untraced proxies pay one
	// pointer load per call.
	trc atomic.Pointer[remoteTracer]
}

// remoteTracer carries the tracer plus this proxy's identity in the
// span tree (which shard it serves, at which address).
type remoteTracer struct {
	tr    *obs.Tracer
	shard int
	addr  string
}

var (
	_ ServerAPI  = (*Remote)(nil)
	_ PartialAPI = (*Remote)(nil)
	_ RangeAPI   = (*Remote)(nil)
	_ MutableAPI = (*Remote)(nil)
	_ LeaseAPI   = (*Remote)(nil)
)

// NewRemote wraps an rmi client as a ServerAPI.
func NewRemote(c *rmi.Client) *Remote {
	return &Remote{c: c, counts: map[string]int64{}}
}

// SetTracer attaches (or, with nil, detaches) a query tracer. Every
// round-trip this proxy issues while the tracer has an open capture
// window is recorded as a frame span labeled with the shard index and
// address, and its trace context rides the rmi frame header.
func (r *Remote) SetTracer(tr *obs.Tracer, shard int, addr string) {
	if tr == nil {
		r.trc.Store(nil)
		return
	}
	r.trc.Store(&remoteTracer{tr: tr, shard: shard, addr: addr})
}

// call issues one RMI round-trip and counts it against the method.
func (r *Remote) call(method string, args, reply any) error {
	return r.callRows(method, args, reply, nil)
}

// callRows is call with a row-count closure for the frame span, read
// from the decoded reply only after a successful exchange.
func (r *Remote) callRows(method string, args, reply any, rows func() int64) error {
	r.mu.Lock()
	r.counts[method]++
	r.mu.Unlock()
	t := r.trc.Load()
	if t == nil || !t.tr.Active() {
		return r.c.Call(method, args, reply)
	}
	tc := rmi.TraceContext{Trace: t.tr.ID(), Span: t.tr.NextSpanID()}
	start := time.Now()
	fi, err := r.c.CallTraced(method, args, reply, tc)
	f := obs.Frame{
		Method: method, Shard: t.shard, Addr: t.addr,
		Start: start, Dur: time.Since(start),
		BytesOut: int64(fi.BytesOut), BytesIn: int64(fi.BytesIn),
	}
	if err != nil {
		f.Err = err.Error()
	} else if rows != nil {
		f.Rows = rows()
	}
	t.tr.AddFrame(f)
	return err
}

// CallCounts returns a snapshot of round-trips issued, keyed by RMI
// method name.
func (r *Remote) CallCounts() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counts))
	for k, v := range r.counts {
		out[k] = v
	}
	return out
}

// RoundTrips returns the total number of round-trips issued.
func (r *Remote) RoundTrips() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, v := range r.counts {
		total += v
	}
	return total
}

// EvalRoundTrips returns the round-trips spent on filter evaluations
// (per-call EvalAt plus batched EvalBatch) — the quantity bounded by one
// per engine step in the batched pipeline.
func (r *Remote) EvalRoundTrips() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[methodEvalAt] + r.counts[methodEvalBatch]
}

// Root implements ServerAPI.
func (r *Remote) Root() (NodeMeta, error) {
	var out NodeMeta
	err := r.call(methodRoot, struct{}{}, &out)
	return out, err
}

// Node implements ServerAPI.
func (r *Remote) Node(pre int64) (NodeMeta, error) {
	var out NodeMeta
	err := r.call(methodNode, pre, &out)
	return out, err
}

// Children implements ServerAPI.
func (r *Remote) Children(pre int64) ([]NodeMeta, error) {
	var out []NodeMeta
	err := r.call(methodChildren, pre, &out)
	return out, err
}

// Descendants implements ServerAPI.
func (r *Remote) Descendants(pre, post int64) ([]NodeMeta, error) {
	var out []NodeMeta
	err := r.call(methodDescendants, descArgs{pre, post}, &out)
	return out, err
}

// EvalAt implements ServerAPI.
func (r *Remote) EvalAt(pre int64, point gf.Elem) (gf.Elem, error) {
	var out gf.Elem
	err := r.call(methodEvalAt, evalArgs{pre, point}, &out)
	return out, err
}

// Poly implements ServerAPI.
func (r *Remote) Poly(pre int64) (PolyRow, error) {
	var out PolyRow
	err := r.call(methodPoly, pre, &out)
	return out, err
}

// ChildrenPolys implements ServerAPI.
func (r *Remote) ChildrenPolys(pre int64) ([]PolyRow, error) {
	var out []PolyRow
	err := r.call(methodChildrenPolys, pre, &out)
	return out, err
}

// Count implements ServerAPI.
func (r *Remote) Count() (int64, error) {
	var out int64
	err := r.call(methodCount, struct{}{}, &out)
	return out, err
}

// remoteBatch issues one batch frame, recording its member count on the
// frame span.
func remoteBatch[Req, Resp any](r *Remote, method string, reqs []Req) ([]Resp, error) {
	var out []Resp
	err := r.callRows(method, reqs, &out, func() int64 { return int64(len(out)) })
	return out, err
}

// EvalBatch implements ServerAPI: one round-trip carrying every (node,
// point) pair.
func (r *Remote) EvalBatch(reqs []EvalRequest) ([]EvalResult, error) {
	return remoteBatch[EvalRequest, EvalResult](r, methodEvalBatch, reqs)
}

// NodeBatch implements ServerAPI.
func (r *Remote) NodeBatch(pres []int64) ([]NodeMeta, error) {
	return remoteBatch[int64, NodeMeta](r, methodNodeBatch, pres)
}

// ChildrenBatch implements ServerAPI.
func (r *Remote) ChildrenBatch(pres []int64) ([][]NodeMeta, error) {
	return remoteBatch[int64, []NodeMeta](r, methodChildrenBatch, pres)
}

// DescendantsBatch implements ServerAPI over byte-bounded reply pages,
// splitting inside wide subtrees.
func (r *Remote) DescendantsBatch(spans []Span) ([][]NodeMeta, error) {
	return r.descendantsPaged(spans)
}

// NodePolysBatch implements ServerAPI over byte-bounded reply pages.
func (r *Remote) NodePolysBatch(pres []int64) ([]NodePolys, error) {
	return remotePagedBundles[NodePolys](r, methodNodePolysPage, pres)
}

// NodePolysPartial implements PartialAPI: the cluster client's
// equality-bundle fragments, paged.
func (r *Remote) NodePolysPartial(pres []int64) ([]PartialNodePolys, error) {
	return remotePagedBundles[PartialNodePolys](r, methodNodePolysPartialPage, pres)
}

// ServerStats implements ServerAPI over the wire.
func (r *Remote) ServerStats() (ServerStats, error) {
	var out ServerStats
	err := r.call(methodServerStats, struct{}{}, &out)
	return out, err
}

// AggregateBatch implements ServerAPI over the wire.
func (r *Remote) AggregateBatch(req AggregateRequest) (AggregateReply, error) {
	var out AggregateReply
	err := r.call(methodAggregateBatch, req, &out)
	return out, err
}

// PreRange implements RangeAPI over the wire.
func (r *Remote) PreRange() (PreRange, error) {
	var out PreRange
	err := r.call(methodPreRange, struct{}{}, &out)
	return out, err
}

// callWrite is call for the write-path methods. A read-only server
// registers none of them, so its unknown-method reply becomes the typed
// ErrReadOnly.
func (r *Remote) callWrite(method string, args, reply any) error {
	err := r.call(method, args, reply)
	if rmi.IsUnknownMethod(err, method) {
		return ErrReadOnly
	}
	return err
}

// Mutate implements MutableAPI over the wire.
func (r *Remote) Mutate(b MutationBatch) (MutateReply, error) {
	var out MutateReply
	err := r.callWrite(methodMutate, b, &out)
	return out, err
}

// Epoch implements MutableAPI over the wire.
func (r *Remote) Epoch() (EpochInfo, error) {
	var out EpochInfo
	err := r.callWrite(methodEpoch, struct{}{}, &out)
	return out, err
}

// AcquireLease implements LeaseAPI over the wire.
func (r *Remote) AcquireLease(req LeaseRequest) (LeaseGrant, error) {
	var out LeaseGrant
	err := r.callWrite(methodAcquireLease, req, &out)
	return out, err
}

// ReleaseLease implements LeaseAPI over the wire.
func (r *Remote) ReleaseLease(id uint64) error {
	return r.callWrite(methodReleaseLease, id, &struct{}{})
}

// MutateLeased implements LeaseAPI over the wire.
func (r *Remote) MutateLeased(lb LeasedBatch) (MutateReply, error) {
	var out MutateReply
	err := r.callWrite(methodMutateLeased, lb, &out)
	return out, err
}

// SetEpoch pins (or with 0 unpins) the epoch stamped on every
// subsequent frame of this proxy's connection.
func (r *Remote) SetEpoch(epoch uint64) { r.c.SetEpoch(epoch) }
