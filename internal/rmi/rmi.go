// Package rmi is the repo's stand-in for Java RMI (paper §5.2): a small
// synchronous RPC layer with gob-encoded, length-prefixed frames over any
// net.Conn. The ClientFilter and ServerFilter of the paper communicate
// exclusively through this interface, so evaluation and message counts in
// the experiments include exactly the round-trips the prototype made.
//
// The protocol is strictly request/response. Clients serialize concurrent
// calls; servers handle each connection in its own goroutine.
//
// # One frame version
//
// Every request frame carries FrameVersion, and client and server are
// built from the same source: there is one protocol, with no feature
// probing and no downgrade. A server refuses, before dispatch, any frame
// whose version differs from its own, and the client turns that refusal
// into a *VersionError. The first frame a session sends at dial time
// therefore fails on a mismatched peer, naming both versions.
//
// # Tenants
//
// A request frame carries a tenant name, and a server dispatches each
// call against that tenant's handler set — how one process serves many
// independent encrypted tables. A frame naming no tenant routes to the
// server's designated default tenant. Handlers registered under the
// empty tenant name are global: reachable from every tenant, which is
// how runtime and admin methods stay tenant-independent.
package rmi

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"encshare/internal/obs"
)

// maxFrame bounds a single message; a frame larger than this indicates
// corruption or protocol mismatch.
const maxFrame = 64 << 20

// RemoteError is an error returned by the remote handler (as opposed to a
// transport failure). A RemoteError means the server received the call
// and answered it: retrying the same call — here or on a byte-identical
// replica — would deterministically fail again.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "rmi: remote: " + e.Msg }

// TransportError is a failure of the connection itself — the frame never
// arrived, the reply never came back, or the stream desynchronized. The
// call may or may not have executed server-side, but for a read-only
// protocol it is always safe to retry, and against a replicated shard it
// is the signal to fail over to another replica.
type TransportError struct {
	Method string
	Err    error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("rmi: transport: %s: %v", e.Method, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// unknownMethodPrefix starts the RemoteError message for a method the
// server does not expose; IsUnknownMethod is the public contract, so the
// wording can change without breaking callers. unknownTenantPrefix is
// its tenant-level analogue.
const (
	unknownMethodPrefix = "unknown method "
	unknownTenantPrefix = "unknown tenant "
)

// IsUnknownMethod reports whether err says the server does not expose
// the named method. The match is exact against the server's dispatch
// reply, so a handler whose own error text merely resembles it cannot
// trigger a false match.
func IsUnknownMethod(err error, method string) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Msg == unknownMethodPrefix+method
}

// IsUnknownTenant reports whether err says the server does not host the
// named tenant.
func IsUnknownTenant(err error, tenant string) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Msg == unknownTenantPrefix+tenant
}

// ErrUnknownTenant is the error a handler returns to reject a tenant by
// name with the same reply text the dispatcher itself uses — so
// IsUnknownTenant matches both producers and the wording lives in one
// package.
func ErrUnknownTenant(tenant string) error {
	return errors.New(unknownTenantPrefix + tenant)
}

// FrameVersion is the one request frame version this package speaks.
// Bump it whenever the frame layout or any method's argument or reply
// shape changes: peers built from different sources then refuse each
// other at the first frame instead of misreading one another.
const FrameVersion = 3

// refusalPrefix starts the reply to a frame refused for its version;
// the server's version follows, and the client parses it back into a
// VersionError.
const refusalPrefix = "frame version refused, server speaks version "

// VersionError reports a frame the server refused because it carried a
// different frame version: client and server were built from
// incompatible sources. It is not retryable — every replica of the same
// build refuses the same way; the cure is deploying matching binaries.
type VersionError struct {
	Method string
	Client uint8 // version the frame carried
	Server uint8 // version the server speaks
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("rmi: %s: frame version %d refused, server speaks version %d", e.Method, e.Client, e.Server)
}

type request struct {
	Seq    uint64
	Method string
	Body   []byte
	Ver    uint8
	Tenant string
	Trace  uint64
	Span   uint64
	Epoch  uint64
}

type response struct {
	Seq  uint64
	Err  string
	Body []byte
}

// HandlerFunc processes one call: gob-encoded args in, gob-encoded reply
// out.
type HandlerFunc func(body []byte) ([]byte, error)

// Server dispatches incoming calls to registered handlers. Safe for
// concurrent use. Handler sets are keyed by tenant name; the empty name
// holds the global set, which doubles as the single-tenant registration
// target and as the lookup for tenant-independent methods (a method
// missing from a tenant's set is looked up globally before the call
// fails).
type Server struct {
	mu            sync.RWMutex
	tenants       map[string]map[string]HandlerFunc
	defaultTenant string

	// Stats
	calls     atomic.Int64
	bytesIn   atomic.Int64
	bytesOut  atomic.Int64
	listeners sync.WaitGroup

	// Graceful shutdown: closing flips first, the drain lock waits out
	// frames already being handled (each frame holds a read lock from
	// dispatch through reply write), then tracked connections close.
	closing atomic.Bool
	drain   sync.RWMutex
	connMu  sync.Mutex
	conns   map[net.Conn]struct{}

	// metrics is nil until SetMetrics attaches a registry; the hot path
	// pays only this pointer load when no one is scraping.
	metrics atomic.Pointer[serverMetrics]

	// gate, when set, brackets every dispatched frame (see SetGate); nil
	// until a runtime with epoch-fenced data installs one.
	gate atomic.Pointer[GateFunc]
}

// GateFunc admits or rejects one frame before its handler runs. It
// receives the frame's tenant (as sent — "" means the server default),
// method, and pinned epoch (0 = unpinned), and either returns a release
// callback that ServeConn invokes after the handler's reply is built,
// or an error that becomes the frame's remote error. The server runtime
// uses this to fence reads against a data epoch: a frame pinned to a
// stale epoch is refused here, atomically with respect to mutations,
// instead of racing them inside the handler.
type GateFunc func(tenant, method string, epoch uint64) (release func(), err error)

// SetGate installs (or, with nil, removes) the per-frame gate. Safe to
// call while serving; frames already past their gate check complete
// under the gate they acquired.
func (s *Server) SetGate(fn GateFunc) {
	if fn == nil {
		s.gate.Store(nil)
		return
	}
	s.gate.Store(&fn)
}

// serverMetrics holds the instruments ServeConn touches per frame.
type serverMetrics struct {
	reg    *obs.Registry
	traced *obs.Counter
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{
		tenants: map[string]map[string]HandlerFunc{"": {}},
		conns:   map[net.Conn]struct{}{},
	}
}

// Handle registers fn under the method name in the global handler set.
// Registering a duplicate name panics (a programming error).
func (s *Server) Handle(method string, fn HandlerFunc) {
	s.HandleAt("", method, fn)
}

// HandleAt registers fn under the method name in the named tenant's
// handler set (the empty tenant is the global set). Registering a
// duplicate (tenant, method) pair panics.
func (s *Server) HandleAt(tenant, method string, fn HandlerFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := s.tenants[tenant]
	if set == nil {
		set = map[string]HandlerFunc{}
		s.tenants[tenant] = set
	}
	if _, dup := set[method]; dup {
		panic("rmi: duplicate handler for " + tenant + "/" + method)
	}
	set[method] = fn
}

// DropTenant removes a tenant's entire handler set, reporting whether it
// existed. In-flight calls already dispatched to its handlers complete;
// later frames naming the tenant get an unknown-tenant error. The global
// set cannot be dropped.
func (s *Server) DropTenant(tenant string) bool {
	if tenant == "" {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tenants[tenant]; !ok {
		return false
	}
	delete(s.tenants, tenant)
	if s.defaultTenant == tenant {
		s.defaultTenant = ""
	}
	return true
}

// SetDefaultTenant names the tenant that calls carrying no tenant are
// routed to, so a client that never names one keeps working against a
// multi-tenant server. An empty name restores the global set as the
// target.
func (s *Server) SetDefaultTenant(tenant string) {
	s.mu.Lock()
	s.defaultTenant = tenant
	s.mu.Unlock()
}

// Tenants returns the named tenants with registered handler sets (the
// global set is not listed).
func (s *Server) Tenants() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tenants)-1)
	for name := range s.tenants {
		if name != "" {
			out = append(out, name)
		}
	}
	return out
}

// HandleFunc registers a typed handler: decode Args, call, encode Reply.
func HandleFunc[Args any, Reply any](s *Server, method string, fn func(Args) (Reply, error)) {
	HandleFuncAt(s, "", method, fn)
}

// HandleFuncAt is HandleFunc targeting a tenant's handler set.
func HandleFuncAt[Args any, Reply any](s *Server, tenant, method string, fn func(Args) (Reply, error)) {
	s.HandleAt(tenant, method, func(body []byte) ([]byte, error) {
		var args Args
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&args); err != nil {
			return nil, fmt.Errorf("decoding args: %w", err)
		}
		reply, err := fn(args)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&reply); err != nil {
			return nil, fmt.Errorf("encoding reply: %w", err)
		}
		return buf.Bytes(), nil
	})
}

// lookup resolves a request's tenant and method to a handler, or to the
// error message the response should carry.
func (s *Server) lookup(tenant, method string) (HandlerFunc, string) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	name := tenant
	if name == "" {
		name = s.defaultTenant
	}
	set, known := s.tenants[name]
	if fn, ok := set[method]; ok {
		return fn, ""
	}
	// Tenant-independent methods (runtime, admin) live in the global
	// set and answer under any tenant, known or not.
	if fn, ok := s.tenants[""][method]; ok {
		return fn, ""
	}
	if !known {
		return nil, unknownTenantPrefix + name
	}
	return nil, unknownMethodPrefix + method
}

// Serve accepts connections until the listener is closed.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				s.listeners.Wait()
				return nil
			}
			return fmt.Errorf("rmi: accept: %w", err)
		}
		s.listeners.Add(1)
		go func() {
			defer s.listeners.Done()
			s.ServeConn(conn)
		}()
	}
}

// ServeConn serves a single connection until EOF, error, or server
// shutdown.
func (s *Server) ServeConn(conn net.Conn) {
	s.connMu.Lock()
	if s.closing.Load() {
		s.connMu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.connMu.Unlock()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
	}()
	for {
		var req request
		n, err := readFrame(conn, &req)
		if err != nil {
			return // EOF or broken peer: nothing to report to
		}
		// The read lock brackets one frame: Shutdown's write lock
		// cannot proceed until every frame already past the closing
		// check has written its reply.
		s.drain.RLock()
		if s.closing.Load() {
			s.drain.RUnlock()
			return
		}
		s.bytesIn.Add(int64(n))
		s.calls.Add(1)
		var fn HandlerFunc
		var errMsg string
		if req.Ver == FrameVersion {
			fn, errMsg = s.lookup(req.Tenant, req.Method)
		} else {
			errMsg = refusalPrefix + strconv.Itoa(FrameVersion)
		}
		m := s.metrics.Load()
		if m != nil && req.Trace != 0 {
			m.traced.Inc()
		}
		var resp response
		resp.Seq = req.Seq
		if fn == nil {
			resp.Err = errMsg
		} else if release, gerr := s.admit(req.Tenant, req.Method, req.Epoch); gerr != nil {
			resp.Err = gerr.Error()
		} else {
			start := time.Time{}
			if m != nil {
				start = time.Now()
			}
			body, err := fn(req.Body)
			if release != nil {
				release()
			}
			if m != nil {
				m.reg.Histogram("rmi_server_call_seconds", "handler latency by method",
					obs.Labels{"method": req.Method}).Observe(time.Since(start))
			}
			if err != nil {
				resp.Err = err.Error()
			} else {
				resp.Body = body
			}
		}
		n, err = writeFrame(conn, &resp)
		s.drain.RUnlock()
		if err != nil {
			return
		}
		s.bytesOut.Add(int64(n))
		if s.closing.Load() {
			return
		}
	}
}

// admit runs the installed gate, if any, for one frame.
func (s *Server) admit(tenant, method string, epoch uint64) (func(), error) {
	g := s.gate.Load()
	if g == nil {
		return nil, nil
	}
	return (*g)(tenant, method, epoch)
}

// drainTimeout bounds how long Shutdown waits for in-flight frames: a
// peer that requested a reply and then stopped reading would otherwise
// hold its ServeConn goroutine in a blocked write forever, and the
// drain barrier with it. A variable so tests can shrink it.
var drainTimeout = 5 * time.Second

// Shutdown drains the server: frames already being handled complete and
// their replies are written (bounded by drainTimeout — a peer that
// stopped reading has its reply write cut off instead of hanging the
// shutdown), no new frame is dispatched, and every tracked connection
// is then closed, which unblocks ServeConn readers and lets Serve
// return once its listener is closed. Safe to call more than once.
func (s *Server) Shutdown() {
	s.closing.Store(true)
	// Bound the drain: any conn I/O still pending past the deadline
	// errors out and releases its read lock.
	deadline := time.Now().Add(drainTimeout)
	s.connMu.Lock()
	for c := range s.conns {
		c.SetDeadline(deadline)
	}
	s.connMu.Unlock()
	// Barrier: wait for every in-flight frame (dispatch through reply
	// write) to release its read lock.
	s.drain.Lock()
	s.drain.Unlock() //nolint:staticcheck // empty critical section is the drain barrier
	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.listeners.Wait()
}

// ServerStats is a snapshot of server-side traffic counters.
type ServerStats struct {
	Calls    int64
	BytesIn  int64
	BytesOut int64
}

// Stats returns a snapshot of the traffic counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Calls:    s.calls.Load(),
		BytesIn:  s.bytesIn.Load(),
		BytesOut: s.bytesOut.Load(),
	}
}

// SetMetrics registers this server's instruments into reg and turns on
// per-method latency histograms. The existing traffic counters are
// exposed as func-backed series (read at scrape time, never copied);
// only the per-frame histogram Observe and the traced-frame counter are
// new work, and both happen only after a registry is attached.
func (s *Server) SetMetrics(reg *obs.Registry) {
	reg.CounterFunc("rmi_server_calls_total", "frames dispatched", nil, s.calls.Load)
	reg.CounterFunc("rmi_server_bytes_in_total", "request bytes received", nil, s.bytesIn.Load)
	reg.CounterFunc("rmi_server_bytes_out_total", "reply bytes written", nil, s.bytesOut.Load)
	m := &serverMetrics{
		reg:    reg,
		traced: reg.Counter("rmi_server_traced_frames_total", "frames carrying a trace context", nil),
	}
	s.metrics.Store(m)
}

// Client issues calls over one connection. Safe for concurrent use; calls
// are serialized.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	seq    uint64
	tenant string
	epoch  uint64

	calls    atomic.Int64
	bytesOut atomic.Int64
	bytesIn  atomic.Int64
}

// Dial connects to a server at addr (TCP).
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rmi: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn}
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// SetTenant names the tenant every subsequent call is issued against.
// An empty name (the default) routes to the server's default tenant.
// Callers naming a tenant should verify the server hosts it first (see
// internal/server.ResolveTenant).
func (c *Client) SetTenant(tenant string) {
	c.mu.Lock()
	c.tenant = tenant
	c.mu.Unlock()
}

// Tenant returns the tenant set with SetTenant ("" if none).
func (c *Client) Tenant() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tenant
}

// SetEpoch pins every subsequent call to a data epoch. Zero (the
// default) means unpinned. A server with an epoch gate refuses pinned
// frames whose epoch has passed, so the caller sees a consistent
// snapshot or a typed stale-epoch error, never a torn read.
func (c *Client) SetEpoch(epoch uint64) {
	c.mu.Lock()
	c.epoch = epoch
	c.mu.Unlock()
}

// Epoch returns the epoch pinned with SetEpoch (0 if unpinned).
func (c *Client) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// TraceContext identifies the trace (and the client-side span issuing
// the call) a frame belongs to. The zero value means "untraced".
type TraceContext struct {
	Trace uint64
	Span  uint64
}

// FrameInfo reports the wire cost of one completed call.
type FrameInfo struct {
	BytesOut int
	BytesIn  int
}

// Call invokes method with gob-encoded args, decoding the reply into
// reply (a pointer), and returns a *RemoteError if the handler failed.
func (c *Client) Call(method string, args any, reply any) error {
	_, err := c.doCall(method, args, reply, TraceContext{})
	return err
}

// CallTraced is Call with a trace context stamped into the frame header
// and the frame's byte counts returned — the hook the filter proxy uses
// to record frame spans.
func (c *Client) CallTraced(method string, args any, reply any, tc TraceContext) (FrameInfo, error) {
	return c.doCall(method, args, reply, tc)
}

func (c *Client) doCall(method string, args any, reply any, tc TraceContext) (FrameInfo, error) {
	var fi FrameInfo
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(args); err != nil {
		return fi, fmt.Errorf("rmi: encoding args for %s: %w", method, err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	return c.exchange(&request{Seq: c.seq, Method: method, Body: body.Bytes(), Ver: FrameVersion, Tenant: c.tenant, Trace: tc.Trace, Span: tc.Span, Epoch: c.epoch}, reply)
}

// exchange writes one request frame and reads its reply. Caller holds
// c.mu.
func (c *Client) exchange(req *request, reply any) (FrameInfo, error) {
	var fi FrameInfo
	method := req.Method
	n, err := writeFrame(c.conn, req)
	if err != nil {
		return fi, &TransportError{Method: method, Err: fmt.Errorf("sending: %w", err)}
	}
	c.bytesOut.Add(int64(n))
	fi.BytesOut = n
	var resp response
	n, err = readFrame(c.conn, &resp)
	if err != nil {
		return fi, &TransportError{Method: method, Err: fmt.Errorf("receiving reply: %w", err)}
	}
	c.bytesIn.Add(int64(n))
	c.calls.Add(1)
	fi.BytesIn = n
	if resp.Seq != req.Seq {
		return fi, &TransportError{Method: method, Err: fmt.Errorf("reply sequence %d for request %d", resp.Seq, req.Seq)}
	}
	if resp.Err != "" {
		if v, ok := strings.CutPrefix(resp.Err, refusalPrefix); ok {
			if sv, err := strconv.ParseUint(v, 10, 8); err == nil {
				return fi, &VersionError{Method: method, Client: req.Ver, Server: uint8(sv)}
			}
		}
		return fi, &RemoteError{Msg: resp.Err}
	}
	if reply != nil {
		if err := gob.NewDecoder(bytes.NewReader(resp.Body)).Decode(reply); err != nil {
			return fi, &TransportError{Method: method, Err: fmt.Errorf("decoding reply: %w", err)}
		}
	}
	return fi, nil
}

// ClientStats is a snapshot of client-side traffic counters.
type ClientStats struct {
	Calls    int64
	BytesOut int64
	BytesIn  int64
}

// Stats returns a snapshot of the traffic counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Calls:    c.calls.Load(),
		BytesOut: c.bytesOut.Load(),
		BytesIn:  c.bytesIn.Load(),
	}
}

// Pipe returns a connected in-process client/server pair: the returned
// client talks to srv over a net.Pipe, with the server goroutine running
// until the client closes. Used by tests and by single-process setups
// that still want the exact remote code path.
func Pipe(srv *Server) *Client {
	cConn, sConn := net.Pipe()
	go srv.ServeConn(sConn)
	return NewClient(cConn)
}

// writeFrame writes a 4-byte big-endian length followed by the gob
// encoding of v, returning total bytes written.
func writeFrame(w io.Writer, v any) (int, error) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0}) // length placeholder
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return 0, err
	}
	b := buf.Bytes()
	payload := len(b) - 4
	if payload > maxFrame {
		return 0, fmt.Errorf("frame of %d bytes exceeds limit", payload)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(payload))
	n, err := w.Write(b)
	return n, err
}

// readFrame reads one length-prefixed gob frame into v, returning total
// bytes read.
func readFrame(r io.Reader, v any) (int, error) {
	var lenbuf [4]byte
	if _, err := io.ReadFull(r, lenbuf[:]); err != nil {
		return 0, err
	}
	size := binary.BigEndian.Uint32(lenbuf[:])
	if size > maxFrame {
		return 0, fmt.Errorf("frame of %d bytes exceeds limit", size)
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, err
	}
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(v); err != nil {
		return 0, err
	}
	return 4 + int(size), nil
}
