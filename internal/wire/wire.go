// Package wire implements the client/server database protocol: the "DBMS
// native protocol" of the paper's Figures 5–7. A Server fronts anything that
// can open sessions (an engine replica or the replication middleware — the
// protocol is the same, which is what lets middleware interpose
// transparently). The Driver is the client side, with the two failure
// detection modes of §4.3.4.2: TCP-keepalive-style read timeouts (slow) and
// an application-level heartbeat (fast).
package wire

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sqltypes"
)

// messageConn couples a gob encoder with a buffered writer so each message
// leaves in one syscall: gob emits several small writes per Encode (type
// info, lengths, payload), and unbuffered they each hit the kernel — pure
// per-round-trip overhead on both ends of the protocol. The decoder needs
// no counterpart (gob buffers its reads internally).
type messageConn struct {
	bw  *bufio.Writer
	enc *gob.Encoder
}

func newMessageConn(w io.Writer) *messageConn {
	bw := bufio.NewWriter(w)
	return &messageConn{bw: bw, enc: gob.NewEncoder(bw)}
}

// send encodes one message and flushes it to the wire.
func (m *messageConn) send(v any) error {
	if err := m.enc.Encode(v); err != nil {
		return err
	}
	return m.bw.Flush()
}

// request kinds.
const (
	reqAuth = iota
	reqExec
	reqPing
	reqClose
	// reqPrepare parses SQL once server-side and returns a statement
	// handle id; reqExecStmt executes a handle with fresh bind arguments
	// (no SQL text, no parsing); reqCloseStmt releases a handle. Together
	// they make the engine's prepared fast path reachable from remote
	// clients.
	reqPrepare
	reqExecStmt
	reqCloseStmt
)

// request is one client->server message.
type request struct {
	Kind     int
	SQL      string
	Args     []sqltypes.Value
	User     string
	Password string
	Database string
	// StmtID addresses a server-side prepared statement (EXEC_STMT /
	// CLOSE_STMT).
	StmtID uint64
}

// Error codes carried in Response.Code, classifying server-side failures
// for drivers.
const (
	// CodeOK means no error.
	CodeOK = 0
	// CodeError is a plain statement error; the connection stays usable.
	CodeError = 1
	// CodeRetryable means this connection's backend session has become
	// unusable (e.g. its home replica died) but the cluster may well serve
	// a fresh connection. Pooled drivers map it to driver.ErrBadConn so
	// the pool discards the connection and retries transparently — the
	// application-invisible failover of §4.3.3.
	CodeRetryable = 2
	// CodeOverloaded means admission control shed the request (or the
	// server refused the connection at its -max-conns limit). Retryable:
	// the cluster is healthy, just saturated — back off and try again.
	CodeOverloaded = 3
	// CodeDeadline means the request's statement deadline expired while it
	// was queued or executing. Retryable: a later attempt may find a
	// shorter queue.
	CodeDeadline = 4
)

// Response is one server->client message: the wire form of a statement
// result.
type Response struct {
	Columns      []string
	Rows         []sqltypes.Row
	RowsAffected int64
	LastInsertID int64
	// AtSeq is the replication position the statement's commit landed at
	// (engine.Result.AtSeq over the wire): zero for reads and statements
	// inside a still-open transaction. Client-side history recorders use it
	// to order observed versions without server cooperation.
	AtSeq uint64
	Err   string
	// Code classifies Err (CodeOK, CodeError, CodeRetryable).
	Code int
	// StmtID and NumInput describe the handle a PREPARE created.
	StmtID   uint64
	NumInput int
}

// Err returns the response error, if any.
func (r *Response) Error() error {
	if r.Err == "" {
		return nil
	}
	return &ServerError{Msg: r.Err, Code: r.Code}
}

// ServerError is a statement error reported by the server, preserving its
// classification code across the wire.
type ServerError struct {
	Msg  string
	Code int
}

// Error implements error.
func (e *ServerError) Error() string { return e.Msg }

// Retryable reports whether err is a server error that a pooled driver
// should treat as "discard this connection and retry on a fresh one".
func Retryable(err error) bool {
	var se *ServerError
	if !errors.As(err, &se) {
		return false
	}
	switch se.Code {
	case CodeRetryable, CodeOverloaded, CodeDeadline:
		return true
	}
	return false
}

// ErrorCode extracts a ServerError's classification code; CodeOK when err
// is nil or carries no server classification.
func ErrorCode(err error) int {
	var se *ServerError
	if errors.As(err, &se) {
		return se.Code
	}
	return CodeOK
}

// SessionHandler executes statements for one client connection.
type SessionHandler interface {
	// Exec runs one statement with optional bound parameters.
	Exec(sql string, args []sqltypes.Value) (*Response, error)
	// Close releases the session.
	Close()
}

// StmtHandler is a server-side prepared statement.
type StmtHandler interface {
	// Exec runs the prepared statement with the given bindings.
	Exec(args []sqltypes.Value) (*Response, error)
	// NumInput returns the number of ? placeholders.
	NumInput() int
	// Close releases the handle.
	Close()
}

// Preparer is implemented by session handlers that support server-side
// prepared statements (PREPARE / EXEC_STMT / CLOSE_STMT). Handlers without
// it still serve text Exec; clients get a clean error on PREPARE.
type Preparer interface {
	Prepare(sql string) (StmtHandler, error)
}

// Backend opens sessions for authenticated users. Implemented by engine
// replicas and by the replication middleware.
type Backend interface {
	// Authenticate validates credentials before a session is opened.
	Authenticate(user, password string) error
	// OpenSession creates a session for the user on the given database
	// ("" = none selected yet).
	OpenSession(user, database string) (SessionHandler, error)
}

// Server accepts wire connections and dispatches them to a Backend.
type Server struct {
	backend  Backend
	ln       net.Listener
	maxConns int

	mu       sync.Mutex
	conns    map[net.Conn]bool
	rejected uint64
	closed   bool
	wg       sync.WaitGroup
}

// ServerOption customizes a Server.
type ServerOption func(*Server)

// WithMaxConns bounds concurrent client connections (0 = unbounded). A
// connection over the limit is refused BEFORE its handshake with a typed
// retryable overload error — a flash crowd costs one short-lived goroutine
// per refusal instead of an unbounded serving goroutine per socket.
func WithMaxConns(n int) ServerOption {
	return func(s *Server) { s.maxConns = n }
}

// NewServer starts a server on addr ("127.0.0.1:0" picks a free port).
func NewServer(addr string, backend Backend, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{backend: backend, ln: ln, conns: make(map[net.Conn]bool)}
	for _, opt := range opts {
		opt(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// RejectedConns reports how many connections the -max-conns guard refused.
func (s *Server) RejectedConns() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rejected
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and closes all connections.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.maxConns > 0 && len(s.conns) >= s.maxConns {
			s.rejected++
			s.mu.Unlock()
			go rejectConn(conn, s.maxConns)
			continue
		}
		s.conns[conn] = true
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// overloadedResp is the typed retryable answer the -max-conns guard gives.
func overloadedResp(limit int) *Response {
	return &Response{
		Err:  fmt.Sprintf("wire: server at max-conns limit (%d), try again later", limit),
		Code: CodeOverloaded,
	}
}

// rejectConn answers an over-limit connection's first request (the auth
// handshake) with a typed retryable overload error, then hangs up. Reading
// the request first matters: responding before the client writes would race
// its send and could surface as a bare connection reset instead of the
// typed error. The refusal speaks whichever protocol the client opened
// with, so binary and gob clients alike see the typed code.
func rejectConn(conn net.Conn, limit int) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	br := bufio.NewReader(conn)
	if sniffBinaryHello(br) {
		if err := acceptBinaryHello(br, conn); err != nil {
			return
		}
		fr := newFrameReader(br)
		_, _, id, _, err := fr.readFrame() // the AUTH frame
		if err != nil {
			return
		}
		fw := newFrameWriter(conn)
		resp := overloadedResp(limit)
		if err := fw.writeFrame(opResult, 0, id, func(b []byte) []byte { return appendResponse(b, resp) }); err != nil {
			return
		}
		_ = fw.flush()
		return
	}
	var req request
	if err := gob.NewDecoder(br).Decode(&req); err != nil {
		return
	}
	_ = newMessageConn(conn).send(overloadedResp(limit))
}

// serverSession holds one connection's server-side state — the backend
// session and its prepared-statement handles — and executes requests
// against it. Both transports drive the same handler, so gob and binary
// semantics cannot diverge.
type serverSession struct {
	backend  Backend
	session  SessionHandler
	stmts    map[uint64]StmtHandler
	nextStmt uint64
}

func newServerSession(backend Backend) *serverSession {
	return &serverSession{backend: backend, stmts: make(map[uint64]StmtHandler)}
}

// handle executes one request and returns its response; ok=false means the
// request kind is unknown and the connection should be dropped (a framing
// or version bug — answering could desynchronize the stream).
func (ss *serverSession) handle(kind int, req *request) (resp *Response, ok bool) {
	switch kind {
	case reqAuth:
		resp = &Response{}
		if err := ss.backend.Authenticate(req.User, req.Password); err != nil {
			resp.Err = err.Error()
			resp.Code = CodeError
		} else {
			sess, err := ss.backend.OpenSession(req.User, req.Database)
			if err != nil {
				resp.Err = err.Error()
				resp.Code = CodeError
			} else {
				ss.session = sess
			}
		}
		return resp, true
	case reqPing:
		return &Response{}, true
	case reqExec:
		if ss.session == nil {
			return &Response{Err: "wire: not authenticated", Code: CodeError}, true
		}
		r, err := ss.session.Exec(req.SQL, req.Args)
		if err != nil {
			return errResponse(err), true
		}
		return r, true
	case reqPrepare:
		switch p := ss.session.(type) {
		case nil:
			return &Response{Err: "wire: not authenticated", Code: CodeError}, true
		case Preparer:
			st, err := p.Prepare(req.SQL)
			if err != nil {
				return errResponse(err), true
			}
			ss.nextStmt++
			ss.stmts[ss.nextStmt] = st
			return &Response{StmtID: ss.nextStmt, NumInput: st.NumInput()}, true
		default:
			return &Response{Err: "wire: backend does not support prepared statements", Code: CodeError}, true
		}
	case reqExecStmt:
		if st, found := ss.stmts[req.StmtID]; found {
			r, err := st.Exec(req.Args)
			if err != nil {
				return errResponse(err), true
			}
			return r, true
		}
		return &Response{Err: fmt.Sprintf("wire: unknown statement handle %d", req.StmtID), Code: CodeError}, true
	case reqCloseStmt:
		if st, found := ss.stmts[req.StmtID]; found {
			delete(ss.stmts, req.StmtID)
			st.Close()
		}
		return &Response{}, true
	default:
		return nil, false
	}
}

func (ss *serverSession) close() {
	for _, st := range ss.stmts {
		st.Close()
	}
	if ss.session != nil {
		ss.session.Close()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReader(conn)
	if sniffBinaryHello(br) {
		if err := acceptBinaryHello(br, conn); err != nil {
			return
		}
		s.serveBinary(conn, br)
		return
	}
	s.serveGob(conn, br)
}

// serveGob is the legacy one-request-in-flight loop, kept verbatim in
// behavior for clients that predate the binary protocol (and for the
// heartbeat side-connection, which pings over gob regardless of the main
// connection's protocol).
func (s *Server) serveGob(conn net.Conn, br *bufio.Reader) {
	dec := gob.NewDecoder(br)
	out := newMessageConn(conn)
	ss := newServerSession(s.backend)
	defer ss.close()
	for {
		var req request
		if err := dec.Decode(&req); err != nil {
			return
		}
		if req.Kind == reqClose {
			return
		}
		resp, ok := ss.handle(req.Kind, &req)
		if !ok {
			return
		}
		if err := out.send(resp); err != nil {
			return
		}
	}
}

// serverWindow bounds requests a binary connection may have queued
// server-side. Combined with the client's own window it caps per-connection
// memory; a client that ignores its window just blocks in the TCP send
// buffer (natural backpressure), it cannot balloon the server.
const serverWindow = 128

// serveBinary is the pipelined loop: a three-stage per-connection pipeline
// of reader (this goroutine) → executor → writer. Execution stays serial
// per connection — sessions are stateful — but decode, execute and encode
// of consecutive pipelined requests overlap, and the writer coalesces
// bursts of responses into one flush.
func (s *Server) serveBinary(conn net.Conn, br *bufio.Reader) {
	type job struct {
		op  byte
		id  uint32
		req request
	}
	jobs := make(chan job, serverWindow)
	type outFrame struct {
		id   uint32
		resp *Response
	}
	resps := make(chan outFrame, serverWindow)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // executor: owns all session state, strictly serial
		defer wg.Done()
		defer close(resps)
		ss := newServerSession(s.backend)
		defer ss.close()
		for j := range jobs {
			resp, ok := ss.handle(int(j.op), &j.req)
			if !ok {
				// Unknown op: stop executing. Closing the conn errors the
				// reader out; draining jobs keeps it from blocking on a
				// full channel until it gets there.
				conn.Close()
				for range jobs {
				}
				return
			}
			resps <- outFrame{id: j.id, resp: resp}
		}
	}()
	go func() { // writer: one flush per burst, not per response
		defer wg.Done()
		fw := newFrameWriter(conn)
		for of := range resps {
			err := fw.writeFrame(opResult, 0, of.id, func(b []byte) []byte { return appendResponse(b, of.resp) })
			if err == nil && (len(resps) == 0 || len(fw.buf) >= maxRetainedBuf) {
				err = fw.flush()
			}
			if err != nil {
				conn.Close()
				for range resps { // unblock the executor
				}
				return
			}
		}
		_ = fw.flush()
	}()

	fr := newFrameReader(br)
	for {
		op, _, id, payload, err := fr.readFrame()
		if err != nil {
			break
		}
		if op == byte(reqClose) {
			break
		}
		var req request
		if op != byte(reqPing) {
			if err := decodeRequest(payload, &req); err != nil {
				break // corrupt payload: framing is untrustworthy, hang up
			}
		}
		jobs <- job{op: op, id: id, req: req}
	}
	close(jobs)
	wg.Wait()
}

// errResponse wraps a backend error in its wire form, preserving the
// retryable classification when the backend provided one.
func errResponse(err error) *Response {
	resp := &Response{Err: err.Error(), Code: CodeError}
	var se *ServerError
	if errors.As(err, &se) {
		resp.Code = se.Code
	}
	return resp
}

// ---- Client driver ----

// ErrConnDead is returned for calls on a connection whose failure has been
// detected (by heartbeat or timeout).
var ErrConnDead = errors.New("wire: connection is dead")

// Protocol selection for DriverConfig.Protocol.
const (
	// ProtocolAuto negotiates the binary framed protocol and silently
	// falls back to gob when the server predates it.
	ProtocolAuto = ""
	// ProtocolBinary requires the binary protocol; a server that rejects
	// the handshake is a dial error, never a fallback.
	ProtocolBinary = "binary"
	// ProtocolGob forces the legacy gob encoding (the PR-5 protocol, one
	// request in flight per connection).
	ProtocolGob = "gob"
)

// DefaultPipelineWindow is the in-flight request cap per binary connection
// when DriverConfig.PipelineWindow is zero.
const DefaultPipelineWindow = 64

// DriverConfig configures a client connection.
type DriverConfig struct {
	User     string
	Password string
	Database string
	// Protocol selects the wire encoding: ProtocolAuto (default),
	// ProtocolBinary, or ProtocolGob.
	Protocol string
	// PipelineWindow bounds in-flight pipelined requests per connection
	// (binary protocol only); zero means DefaultPipelineWindow. Submitting
	// past the window blocks until a response frees a slot.
	PipelineWindow int
	// ConnectTimeout bounds Dial; zero means 2 s.
	ConnectTimeout time.Duration
	// KeepAliveTimeout is the per-request read deadline, modelling the
	// OS-level TCP keepalive of §4.3.4.2 ("30 seconds to 2 hours").
	// Zero means 30 s, like a typical system default.
	KeepAliveTimeout time.Duration
	// HeartbeatInterval, when non-zero, runs an application-level
	// heartbeat on a second connection; a missed heartbeat kills the
	// main connection immediately, unblocking in-flight calls. This is
	// the driver-level fix the paper calls for.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout bounds one heartbeat round trip; zero means
	// 3× HeartbeatInterval.
	HeartbeatTimeout time.Duration
	// StatementTimeout, when non-zero, is announced to the server (SET
	// DEADLINE) by callers that layer session setup over Dial; the wire
	// layer itself does not act on it.
	StatementTimeout time.Duration
}

// Conn is a client connection. On the gob transport calls are serialized
// like a real driver connection (reqMu); on the binary transport many calls
// may be in flight at once, answered in wire order, with the in-flight count
// bounded by the pipeline window. stateMu guards liveness so the heartbeat
// can kill a connection while calls are blocked.
type Conn struct {
	cfg    DriverConfig
	addr   string
	binary bool

	// gob transport (reqMu serializes round trips; guards dec/enc).
	reqMu sync.Mutex
	conn  net.Conn
	dec   *gob.Decoder
	enc   *messageConn

	// binary transport. Callers append frames to wbuf and register in the
	// ring; one writer goroutine writes whatever wbuf holds in one
	// write(2), and one reader goroutine answers the ring's head. mu
	// guards wbuf, closing, the ring and the read deadline; window is the
	// in-flight slot semaphore.
	mu      sync.Mutex
	wbuf    []byte
	closing bool // Close queued reqClose: refuse further calls
	// ring holds the response channels of sent-but-unanswered calls in
	// wire order, at index id&mask; ids head..next-1 are in flight. The
	// server answers each connection's requests in order, so a response
	// whose id is not head's is a desync.
	ring       []chan *Response
	mask       uint32
	head, next uint32
	armedUntil time.Time // read deadline currently set (zero: none)
	window     chan struct{}
	wake       chan struct{} // cap 1: wbuf has frames for the writer
	readerDone chan struct{} // closed when the read loop exits
	writerDone chan struct{} // closed when the write loop exits
	writes     atomic.Uint64 // write(2) calls the writer made

	stateMu sync.Mutex
	dead    error

	hbConn net.Conn
	hbStop chan struct{}
	hbOnce sync.Once
}

// Protocol reports the negotiated wire encoding: "binary" or "gob".
func (c *Conn) Protocol() string {
	if c.binary {
		return ProtocolBinary
	}
	return ProtocolGob
}

// Dial connects, negotiates the protocol, and authenticates.
func Dial(addr string, cfg DriverConfig) (*Conn, error) {
	if cfg.ConnectTimeout == 0 {
		cfg.ConnectTimeout = 2 * time.Second
	}
	if cfg.KeepAliveTimeout == 0 {
		cfg.KeepAliveTimeout = 30 * time.Second
	}
	if cfg.PipelineWindow <= 0 {
		cfg.PipelineWindow = DefaultPipelineWindow
	}
	switch cfg.Protocol {
	case ProtocolGob:
		return dialGob(addr, cfg)
	case ProtocolBinary:
		return dialBinary(addr, cfg)
	default: // ProtocolAuto: binary first, gob when the server is too old
		c, err := dialBinary(addr, cfg)
		if errors.Is(err, errHandshakeRejected) {
			return dialGob(addr, cfg)
		}
		return c, err
	}
}

// finishDial authenticates and starts the heartbeat — the protocol-agnostic
// tail of Dial.
func (c *Conn) finishDial() (*Conn, error) {
	resp, err := c.roundTrip(request{Kind: reqAuth, User: c.cfg.User, Password: c.cfg.Password, Database: c.cfg.Database})
	if err != nil {
		c.conn.Close()
		return nil, err
	}
	if resp.Err != "" {
		c.conn.Close()
		// Keep the server's classification (e.g. CodeOverloaded from the
		// max-conns guard) so drivers can tell "back off and retry" from
		// "bad credentials".
		return nil, resp.Error()
	}
	if c.cfg.HeartbeatInterval > 0 {
		if err := c.startHeartbeat(); err != nil {
			c.conn.Close()
			return nil, err
		}
	}
	return c, nil
}

func dialGob(addr string, cfg DriverConfig) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, cfg.ConnectTimeout)
	if err != nil {
		return nil, err
	}
	c := &Conn{cfg: cfg, addr: addr, conn: nc, dec: gob.NewDecoder(nc), enc: newMessageConn(nc)}
	return c.finishDial()
}

func dialBinary(addr string, cfg DriverConfig) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, cfg.ConnectTimeout)
	if err != nil {
		return nil, err
	}
	if err := clientHello(nc, time.Now().Add(cfg.ConnectTimeout)); err != nil {
		nc.Close()
		return nil, err
	}
	// The ring needs one slot per call that can be unanswered at once — at
	// most the window — and a power-of-two size, so that id&mask stays
	// collision-free across the uint32 wrap.
	size := 1
	for size < cfg.PipelineWindow {
		size <<= 1
	}
	c := &Conn{
		cfg:        cfg,
		addr:       addr,
		binary:     true,
		conn:       nc,
		ring:       make([]chan *Response, size),
		mask:       uint32(size - 1),
		window:     make(chan struct{}, cfg.PipelineWindow),
		wake:       make(chan struct{}, 1),
		readerDone: make(chan struct{}),
		writerDone: make(chan struct{}),
	}
	go c.readLoop()
	go c.writeLoop()
	return c.finishDial()
}

// respChans recycles the one-shot response channels of binary calls. Each
// channel carries exactly one value per use — the response, or nil when the
// connection died — and is returned only after that value was received.
var respChans = sync.Pool{New: func() any { return make(chan *Response, 1) }}

// armLocked moves the read deadline out to KeepAliveTimeout plus 1/16 of
// slack when it would otherwise fire sooner than KeepAliveTimeout from now.
// The slack bounds re-arming to once per KeepAliveTimeout/16, and the
// deadline fires between 1 and 17/16 KeepAliveTimeout after the last
// response (or the first call after idle), never sooner. Caller holds mu.
func (c *Conn) armLocked() {
	k := c.cfg.KeepAliveTimeout
	now := time.Now()
	if c.armedUntil.Before(now.Add(k)) {
		c.armedUntil = now.Add(k + k/16)
		_ = c.conn.SetReadDeadline(c.armedUntil)
	}
}

// idleTimeout reports whether a read deadline that just fired can be
// ignored: nothing was in flight (the deadline outlived the traffic that
// armed it, so it is cleared), or a call arriving after idle has already
// moved it out. Any other expiry is a dead peer.
func (c *Conn) idleTimeout() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.head == c.next {
		c.armedUntil = time.Time{}
		_ = c.conn.SetReadDeadline(time.Time{})
		return true
	}
	return c.armedUntil.After(time.Now())
}

// readLoop is the binary transport's single reader: it hands each response
// frame to the ring's head and keeps the read deadline armed while anything
// is in flight. On exit it fails every unanswered call, so no waiter can
// hang on a dead conn.
func (c *Conn) readLoop() {
	fr := newFrameReader(c.conn)
	for {
		_, _, id, payload, err := fr.readFrame()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) && !fr.torn && c.idleTimeout() {
				continue
			}
			c.markDead(err)
			break
		}
		resp := new(Response)
		if err := decodeResponse(payload, resp); err != nil {
			c.markDead(err)
			break
		}
		c.mu.Lock()
		if c.head == c.next || id != c.head {
			want := c.head
			inflight := c.next - c.head
			c.mu.Unlock()
			c.markDead(fmt.Errorf("%w: response id %d, want %d with %d in flight", ErrProtocolDesync, id, want, inflight))
			break
		}
		slot := &c.ring[id&c.mask]
		ch := *slot
		*slot = nil
		c.head++
		if c.head != c.next {
			c.armLocked()
		}
		c.mu.Unlock()
		ch <- resp
	}
	// Closing readerDone under mu orders it against submit: a call
	// registered before it is failed by the drain below; one that comes
	// after sees readerDone closed and never registers.
	c.mu.Lock()
	close(c.readerDone)
	for ; c.head != c.next; c.head++ {
		slot := &c.ring[c.head&c.mask]
		*slot <- nil
		*slot = nil
	}
	c.mu.Unlock()
}

// maxRetainedBuf caps the frame buffer a connection keeps between writes;
// a rare huge frame's buffer is dropped instead of pinned.
const maxRetainedBuf = 256 << 10

// writeLoop is the binary transport's single writer: each wake-up takes
// every frame appended since its last write and writes them in one call, so
// a burst of pipelined requests shares one write(2). It exits after writing
// the reqClose frame Close queued, or once the reader has exited.
func (c *Conn) writeLoop() {
	defer close(c.writerDone)
	var out []byte
	for {
		select {
		case <-c.wake:
		case <-c.readerDone:
			return
		}
		c.mu.Lock()
		out, c.wbuf = c.wbuf, out[:0]
		closing := c.closing
		c.mu.Unlock()
		if len(out) > 0 {
			c.writes.Add(1)
			if _, err := c.conn.Write(out); err != nil {
				c.markDead(err)
				return
			}
		}
		if closing {
			return
		}
		out = recycle(out)
	}
}

// submit acquires a window slot and queues the request for the writer.
// The request is fully encoded when submit returns, so callers may reuse
// its arguments.
func (c *Conn) submit(kind int, req *request) (chan *Response, error) {
	select {
	case c.window <- struct{}{}:
	case <-c.readerDone:
		return nil, c.deadErr()
	}
	c.mu.Lock()
	ch, wasEmpty, err := c.enqueueLocked(kind, req)
	c.mu.Unlock()
	if err != nil {
		<-c.window
		return nil, err
	}
	if wasEmpty {
		// The writer may be idle; a non-empty wbuf already has a wake-up
		// pending.
		c.kick()
	}
	return ch, nil
}

// enqueueLocked appends the request's frame to wbuf and registers the call
// at the ring's tail. wasEmpty reports whether wbuf held no frames before.
// Caller holds mu.
func (c *Conn) enqueueLocked(kind int, req *request) (ch chan *Response, wasEmpty bool, err error) {
	select {
	case <-c.readerDone:
		return nil, false, c.deadErr()
	default:
	}
	if c.closing {
		return nil, false, ErrConnDead
	}
	wasEmpty = len(c.wbuf) == 0
	if c.wbuf, err = appendFrame(c.wbuf, byte(kind), 0, c.next, func(b []byte) []byte { return appendRequest(b, req) }); err != nil {
		// The size check fires before the frame is kept, so the stream is
		// still in sync: surface the typed error and keep the connection.
		return nil, false, err
	}
	if c.head == c.next {
		c.armLocked()
	}
	ch = respChans.Get().(chan *Response)
	c.ring[c.next&c.mask] = ch
	c.next++
	return ch, wasEmpty, nil
}

// kick wakes the writer goroutine.
func (c *Conn) kick() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// await receives a submitted call's response and releases its window slot.
func (c *Conn) await(ch chan *Response) (*Response, error) {
	resp := <-ch
	respChans.Put(ch)
	<-c.window
	if resp == nil {
		return nil, c.deadErr()
	}
	return resp, nil
}

func (c *Conn) callBinary(kind int, req *request) (*Response, error) {
	ch, err := c.submit(kind, req)
	if err != nil {
		return nil, err
	}
	return c.await(ch)
}

// Addr returns the server address this connection targets.
func (c *Conn) Addr() string { return c.addr }

// Exec sends a statement and waits for its result.
func (c *Conn) Exec(sql string, args ...sqltypes.Value) (*Response, error) {
	resp, err := c.roundTrip(request{Kind: reqExec, SQL: sql, Args: args})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return resp, resp.Error()
	}
	return resp, nil
}

// Prepare creates a server-side prepared statement: the SQL crosses the
// wire and is parsed exactly once; every Exec on the returned handle ships
// only the handle id and the bind arguments.
func (c *Conn) Prepare(sql string) (*Stmt, error) {
	resp, err := c.roundTrip(request{Kind: reqPrepare, SQL: sql})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, resp.Error()
	}
	return &Stmt{c: c, id: resp.StmtID, numInput: resp.NumInput}, nil
}

// Stmt is a client handle to a server-side prepared statement.
type Stmt struct {
	c        *Conn
	id       uint64
	numInput int
}

// Exec runs the prepared statement with the given bindings.
func (s *Stmt) Exec(args ...sqltypes.Value) (*Response, error) {
	resp, err := s.c.roundTrip(request{Kind: reqExecStmt, StmtID: s.id, Args: args})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return resp, resp.Error()
	}
	return resp, nil
}

// NumInput returns the number of ? placeholders the statement declares.
func (s *Stmt) NumInput() int { return s.numInput }

// Close releases the server-side handle.
func (s *Stmt) Close() error {
	_, err := s.c.roundTrip(request{Kind: reqCloseStmt, StmtID: s.id})
	return err
}

// Ping checks liveness over the main connection.
func (c *Conn) Ping() error {
	_, err := c.roundTrip(request{Kind: reqPing})
	return err
}

func (c *Conn) roundTrip(req request) (*Response, error) {
	if c.binary {
		return c.callBinary(req.Kind, &req)
	}
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	if err := c.deadErr(); err != nil {
		return nil, err
	}
	if err := c.conn.SetDeadline(time.Now().Add(c.cfg.KeepAliveTimeout)); err != nil {
		return nil, err
	}
	if err := c.enc.send(&req); err != nil {
		c.markDead(err)
		return nil, c.deadErr()
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		c.markDead(err)
		return nil, c.deadErr()
	}
	return &resp, nil
}

// Pending is an in-flight pipelined request. Wait must be called exactly
// once; until then the request occupies one slot of the connection's
// pipeline window.
type Pending struct {
	c    *Conn
	ch   chan *Response // binary: the call's response channel until Wait
	resp *Response      // pre-resolved result on the non-pipelining gob path
	err  error
}

// Wait blocks for the response. Statement errors surface exactly like
// Exec's: the Response carries them and the error is typed.
func (p *Pending) Wait() (*Response, error) {
	if p.ch != nil {
		resp, err := p.c.await(p.ch)
		p.ch = nil
		if err != nil {
			return nil, err
		}
		if resp.Err != "" {
			return resp, resp.Error()
		}
		return resp, nil
	}
	return p.resp, p.err
}

// ExecAsync submits a statement without waiting for its result, pipelining
// it behind whatever is already in flight. On the gob transport (no
// pipelining) it degrades to a synchronous call whose result Wait replays.
func (c *Conn) ExecAsync(sql string, args ...sqltypes.Value) (*Pending, error) {
	return c.execAsync(request{Kind: reqExec, SQL: sql, Args: args})
}

// ExecAsync pipelines an execution of the prepared statement.
func (s *Stmt) ExecAsync(args ...sqltypes.Value) (*Pending, error) {
	return s.c.execAsync(request{Kind: reqExecStmt, StmtID: s.id, Args: args})
}

func (c *Conn) execAsync(req request) (*Pending, error) {
	if c.binary {
		ch, err := c.submit(req.Kind, &req)
		if err != nil {
			return nil, err
		}
		return &Pending{c: c, ch: ch}, nil
	}
	resp, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return &Pending{resp: resp, err: resp.Error()}, nil
	}
	return &Pending{resp: resp}, nil
}

func (c *Conn) deadErr() error {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.dead
}

// markDead records the first failure cause and closes the socket, which
// unblocks any in-flight Decode immediately.
func (c *Conn) markDead(cause error) {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	if c.dead == nil {
		// Double-wrap so callers can match both the liveness sentinel and
		// the typed cause (ErrFrameTooLarge, ErrProtocolDesync, ...).
		c.dead = fmt.Errorf("%w: %w", ErrConnDead, cause)
		c.conn.Close()
	}
}

// Close terminates the connection: it tells the server with a reqClose
// frame (best effort, bounded by 100 ms), then closes the socket and, on the
// binary transport, waits for the reader and writer goroutines to exit.
func (c *Conn) Close() {
	c.hbOnce.Do(func() {
		if c.hbStop != nil {
			close(c.hbStop)
		}
	})
	if c.binary {
		c.closeBinary()
	} else {
		c.stateMu.Lock()
		if c.dead == nil {
			_ = c.conn.SetDeadline(time.Now().Add(100 * time.Millisecond))
			_ = c.enc.send(&request{Kind: reqClose})
			c.dead = ErrConnDead
		}
		c.stateMu.Unlock()
		c.conn.Close()
	}
	if c.hbConn != nil {
		c.hbConn.Close()
	}
}

func (c *Conn) closeBinary() {
	c.stateMu.Lock()
	alive := c.dead == nil
	c.stateMu.Unlock()
	c.mu.Lock()
	queued := alive && !c.closing
	if queued {
		// Say goodbye: the writer writes this frame after whatever is
		// queued, then exits.
		c.wbuf, _ = appendFrame(c.wbuf, byte(reqClose), 0, 0, nil)
	}
	c.closing = true
	c.mu.Unlock()
	if queued {
		_ = c.conn.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
		c.kick()
		<-c.writerDone
	}
	c.stateMu.Lock()
	if c.dead == nil {
		c.dead = ErrConnDead
	}
	c.stateMu.Unlock()
	c.conn.Close()
	<-c.writerDone
	<-c.readerDone
}

// startHeartbeat opens a dedicated heartbeat connection and monitors it.
func (c *Conn) startHeartbeat() error {
	hb, err := net.DialTimeout("tcp", c.addr, c.cfg.ConnectTimeout)
	if err != nil {
		return err
	}
	c.hbConn = hb
	c.hbStop = make(chan struct{})
	timeout := c.cfg.HeartbeatTimeout
	if timeout == 0 {
		timeout = 3 * c.cfg.HeartbeatInterval
	}
	enc := newMessageConn(hb)
	dec := gob.NewDecoder(hb)
	go func() {
		ticker := time.NewTicker(c.cfg.HeartbeatInterval)
		defer ticker.Stop()
		for {
			select {
			case <-c.hbStop:
				return
			case <-ticker.C:
			}
			_ = hb.SetDeadline(time.Now().Add(timeout))
			err1 := enc.send(&request{Kind: reqPing})
			var resp Response
			err2 := dec.Decode(&resp)
			if err1 != nil || err2 != nil {
				// Heartbeat failed: kill the main connection so blocked
				// calls return promptly (§4.3.4.2).
				c.markDead(fmt.Errorf("heartbeat failed: %v", firstErr(err1, err2)))
				return
			}
		}
	}()
	return nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// drainEOF is a helper for tests that need to observe closed connections.
func drainEOF(r io.Reader) {
	buf := make([]byte, 256)
	for {
		if _, err := r.Read(buf); err != nil {
			return
		}
	}
}

var _ = drainEOF
