// Package ioserve exposes an Oracle over TCP, modelling the 2019 contest's
// external iogen pattern generator: the learner talks to a black box it does
// not host. Two protocol versions share one port.
//
// Protocol grammar (all lines '\n'-terminated ASCII; <ibits> is one '0'/'1'
// per input in input order, <obits> one per output):
//
//	session  = greeting { exchange } [ "quit" ]
//	greeting = "inputs"  { SP name } LF
//	           "outputs" { SP name } LF
//
//	v1 exchange (always available):
//	  client: <ibits> LF
//	  server: <obits> LF               — or "error:" message LF; the
//	                                     connection stays usable either way
//
//	v2 upgrade (client-initiated, after the greeting):
//	  client: "proto 2" LF
//	  server: "ok 2" LF                — v2 accepted
//	        | "error:" message LF      — v1-only server; client falls back
//
//	v2 batch exchange (only after a successful upgrade):
//	  client: "batch" SP k LF, then k lines of <ibits>
//	  server: "batch" SP k LF, then k lines of <obits>
//	        | "error:" message LF      — whole batch rejected, connection
//	                                     stays usable (all k query lines are
//	                                     consumed first)
//
// A v1 client never sees a v2 token: the server only speaks v2 when spoken
// to. A v2 client probing a v1 server gets an "error:" line back for the
// "proto 2" query (it parses as a malformed bit string) and downgrades
// automatically, so new clients interoperate with old servers and vice
// versa. Batch frames amortize one network round trip over k queries; the
// Client chunks large EvalBatch calls into frames of at most MaxFrame.
//
// # Failure model
//
// Error replies carry a severity prefix so clients can tell a fault they
// should retry from one they must surface (see DESIGN.md "failure model"):
//
//	"error: transient: <msg>"  — the query failed but the session is intact;
//	                             re-issuing the same query may succeed
//	"error: fatal: <msg>"      — the black box is permanently unavailable;
//	                             the server closes the connection after this
//	"error: <msg>"             — the query itself was malformed (a client
//	                             bug, not a transport fault)
//
// A server whose oracle implements oracle.Fallible maps transient errors to
// "error: transient:" lines and permanent errors to "error: fatal:" lines;
// infallible oracles never produce either. On the client side, Client turns
// transport failures into errors tagged transient (timeouts, resets, dropped
// connections, desynchronized replies) or left permanent ("error: fatal:",
// rejected well-formed queries); ResilientClient retries the transient class
// with reconnection and capped backoff.
package ioserve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"logicregression/internal/bitvec"
	"logicregression/internal/oracle"
)

// MaxFrame is the maximum number of queries per v2 batch frame, bounding
// per-frame server memory. Larger EvalBatch calls are split transparently.
const MaxFrame = 1 << 14

// v1PipelineChunk is how many scalar queries the client keeps in flight when
// falling back to the v1 line protocol: small enough that the replies to one
// chunk always fit in kernel socket buffers (no write-write deadlock), large
// enough to amortize round trips.
const v1PipelineChunk = 64

// defaultMaxReply caps the length of a single reply line (and, server-side,
// a single query line) unless DialConfig.MaxReply overrides it.
const defaultMaxReply = 1 << 20

// Sentinel errors of the client lifecycle.
var (
	// ErrClientClosed is returned by operations on a closed client.
	ErrClientClosed = errors.New("ioserve: client is closed")
	// ErrServerChanged is returned (fatally) when a reconnect reaches a
	// server whose port-name greeting differs from the original session's:
	// the black box changed under us and cached answers would be lies.
	ErrServerChanged = errors.New("ioserve: server identity changed across reconnect")
)

// wireTransientError is an "error: transient:" reply: the query failed
// server-side but the connection is still synchronized, so the caller may
// retry in place without redialing.
type wireTransientError struct {
	msg string
}

func (e *wireTransientError) Error() string { return "ioserve: " + e.msg }

// isWireTransient reports whether err is a retry-in-place server reply.
func isWireTransient(err error) bool {
	var we *wireTransientError
	return errors.As(err, &we)
}

// transportErr tags a connection-level failure for the retry layer: almost
// everything (timeouts, resets, EOF, desynchronized streams) is transient —
// a fresh connection may succeed — except our own net.ErrClosed, which means
// the client was torn down locally on purpose.
func transportErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, net.ErrClosed) {
		return err
	}
	return oracle.Transient(err)
}

// Extension hooks service-level commands into the wire protocol: a server
// with an extension installed advertises the extension's protocol level
// during "proto" negotiation and consults it for any command line the core
// protocol does not recognize on sessions that negotiated level 3 or above.
// The multi-tenant learning service (internal/serve) is the canonical
// extension: it adds session, learn-job, and stats verbs on top of the
// query protocol without this package knowing any of their grammar.
//
// Extensions must be safe for concurrent calls: every connection handler
// goroutine dispatches into the same Extension value.
type Extension interface {
	// MaxProto is the highest protocol version the extension speaks
	// (>= 3; versions 1 and 2 are owned by the core protocol).
	MaxProto() int
	// Handle processes one command line on a connection that negotiated
	// protocol >= 3. It returns handled=false to fall through to the core
	// protocol (which will treat the line as a v1 bit-string query), and
	// keep=false to drop the connection (an unrecoverable stream state).
	// Handle replies via c.Reply / c.ReplyLines.
	Handle(c *Conn, line string) (handled, keep bool)
	// ConnClosed runs when a connection's protocol loop exits, however it
	// exits; extensions release per-connection bindings (session
	// attachments) here. It is called at most once per connection.
	ConnClosed(c *Conn)
}

// Server serves a wrapped oracle to any number of concurrent clients.
//
// Connections do not serialize each other when the oracle can hand out
// independent handles (oracle.Forker — circuit simulators, replay tables);
// only oracles without that capability fall back to a shared lock, since
// Oracle implementations need not be concurrency-safe.
type Server struct {
	inner oracle.Oracle
	mu    sync.Mutex // serializes Eval for non-Forker oracles only

	// handlers counts in-flight connection goroutines so Wait can drain
	// them after the listener closes.
	handlers sync.WaitGroup

	// connMu guards conns, the live sockets Shutdown force-closes when a
	// drain deadline expires.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// V1Only disables the v2 protocol, emulating an old server: "proto"
	// and "batch" commands get "error:" replies. Useful for testing client
	// fallback and for byte-exact contest emulation.
	V1Only bool

	// ReadTimeout, when positive, arms a fresh read deadline before every
	// read on a client connection: a client that stops mid-frame (or never
	// sends anything) is dropped instead of pinning its handler goroutine
	// forever. Combined with the MaxFrame guard and the bounded line
	// scanner this caps the resources any one connection can hold.
	ReadTimeout time.Duration

	// Ext, when non-nil, extends the protocol with service-level verbs
	// (see Extension). Set it before Serve; it must not change while
	// connections are live.
	Ext Extension
}

// NewServer wraps an oracle for serving.
func NewServer(o oracle.Oracle) *Server { return &Server{inner: o} }

// Serve accepts connections until the listener is closed. It returns the
// listener's error (net.ErrClosed after a clean shutdown). Handler
// goroutines may still be draining when Serve returns; Wait blocks until
// they finish (or use Shutdown for a bounded drain).
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.handlers.Add(1)
		go func() {
			defer s.handlers.Done()
			s.handle(conn)
		}()
	}
}

// Wait blocks until every connection handler started by Serve has
// returned. Call it after closing the listener for a clean shutdown.
func (s *Server) Wait() { s.handlers.Wait() }

// trackConn registers a live socket for Shutdown's force-close path.
func (s *Server) trackConn(c net.Conn) {
	s.connMu.Lock()
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[c] = struct{}{}
	s.connMu.Unlock()
}

// untrackConn removes a socket once its handler exits.
func (s *Server) untrackConn(c net.Conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
}

// CloseActiveConns severs every live client connection and returns how many
// it closed. In-flight handlers observe the close as a read/write error and
// exit; use it when a graceful drain must be cut short.
func (s *Server) CloseActiveConns() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	for c := range s.conns {
		c.Close()
	}
	n := len(s.conns)
	return n
}

// Shutdown closes the listener (new connections stop being accepted; the
// blocked Serve call returns net.ErrClosed), then drains in-flight
// handlers. A positive drain bounds the wait: handlers still running when
// it expires have their connections severed and are then waited for. A
// non-positive drain waits indefinitely — with ReadTimeout armed even idle
// clients are eventually dropped, so the wait terminates. The returned
// error is the listener's Close error, if any.
func (s *Server) Shutdown(ln net.Listener, drain time.Duration) error {
	err := ln.Close()
	done := make(chan struct{})
	go func() {
		s.handlers.Wait()
		close(done)
	}()
	if drain > 0 {
		t := time.NewTimer(drain)
		select {
		case <-done:
			t.Stop()
		case <-t.C:
			s.CloseActiveConns()
			<-done
		}
	} else {
		<-done
	}
	return err
}

// deadlineConn arms a read deadline before every Read so a silent peer
// cannot block a handler forever. Write deadlines ride along: a peer that
// stops draining replies stalls the same way a silent sender does.
type deadlineConn struct {
	net.Conn
	timeout time.Duration
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	if err := c.Conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c *deadlineConn) Write(p []byte) (int, error) {
	if err := c.Conn.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

func (s *Server) handle(conn net.Conn) {
	s.trackConn(conn)
	defer s.untrackConn(conn)
	defer conn.Close()
	var stream io.ReadWriter = conn
	if s.ReadTimeout > 0 {
		stream = &deadlineConn{Conn: conn, timeout: s.ReadTimeout}
	}
	s.serveStream(stream)
}

// Conn is the server side of one protocol session: the byte stream plus the
// per-connection state the protocol loop threads through commands. The core
// protocol owns the query paths; extensions see the Conn in Handle and may
// rebind its oracle (BindOracle) so subsequent queries are answered — and
// accounted — by a service-level session.
type Conn struct {
	srv *Server
	w   *bufio.Writer
	sc  *bufio.Scanner

	proto  int // negotiated protocol level (1 until a "proto" exchange)
	o      oracle.Oracle
	fo     oracle.Fallible
	locked bool // serialize evals on srv.mu (non-Forker oracle)
	nIn    int

	// State is extension scratch (e.g. the attached session); the core
	// protocol never touches it.
	State any
}

// Proto returns the negotiated protocol level of this connection.
func (c *Conn) Proto() int { return c.proto }

// Oracle returns the oracle currently answering this connection's queries.
func (c *Conn) Oracle() oracle.Oracle { return c.o }

// BindOracle reroutes the connection's query paths through o, which must
// describe the same black box (identical port arities). Extensions use it
// to bind a connection to a session-owned oracle so queries hit the
// session's cache and accounting. The bound oracle must be safe for use by
// this connection's handler goroutine without the server's fallback lock.
func (c *Conn) BindOracle(o oracle.Oracle) {
	c.o = o
	c.fo = oracle.AsFallible(o)
	c.locked = false
	c.nIn = o.NumInputs()
}

// Reply writes one protocol line and flushes it, reporting whether the
// connection is still usable.
func (c *Conn) Reply(line string) bool {
	if _, err := c.w.WriteString(line + "\n"); err != nil {
		return false
	}
	return c.w.Flush() == nil
}

// ReplyLines writes a multi-line reply under a single flush (one network
// write for a whole result frame).
func (c *Conn) ReplyLines(lines []string) bool {
	for _, line := range lines {
		if _, err := c.w.WriteString(line + "\n"); err != nil {
			return false
		}
	}
	return c.w.Flush() == nil
}

// ReadLine consumes one further line of the current command (for verbs
// with multi-line bodies). ok=false means the stream died.
func (c *Conn) ReadLine() (line string, ok bool) {
	if !c.sc.Scan() {
		return "", false
	}
	return strings.TrimSpace(c.sc.Text()), true
}

// replyEvalErr renders an oracle failure on the wire; it returns false
// when the connection must be dropped (write failure or a permanently
// dead oracle).
func (c *Conn) replyEvalErr(err error) bool {
	if oracle.IsTransient(err) {
		return c.Reply(fmt.Sprintf("error: transient: %v", err))
	}
	c.Reply(fmt.Sprintf("error: fatal: %v", err))
	return false
}

// evalBatch answers one batch frame (or one v1 query line, a one-pattern
// batch) through the bound oracle, under the server lock when the oracle
// cannot fork.
func (c *Conn) evalBatch(lanes []bitvec.Word, n int) ([]bitvec.Word, error) {
	if c.locked {
		c.srv.mu.Lock()
		defer c.srv.mu.Unlock()
	}
	return c.fo.TryEvalBatch(lanes, n)
}

// maxProto is the highest protocol level this server will grant.
func (s *Server) maxProto() int {
	maxP := 2
	if s.Ext != nil {
		if m := s.Ext.MaxProto(); m > maxP {
			maxP = m
		}
	}
	return maxP
}

// serveStream speaks the wire protocol over any byte stream. Separating it
// from the connection lifecycle lets tests and the frame-parser fuzz target
// drive the protocol without sockets.
func (s *Server) serveStream(stream io.ReadWriter) {
	// Per-connection oracle handle: forkable oracles run lock-free in
	// parallel across connections; stateful ones share the server lock.
	o := s.inner
	locked := true
	if f, ok := o.(oracle.Forker); ok {
		o = f.Fork()
		locked = false
	}
	c := &Conn{
		srv:    s,
		w:      bufio.NewWriter(stream),
		sc:     bufio.NewScanner(stream),
		proto:  1,
		o:      o,
		fo:     oracle.AsFallible(o),
		locked: locked,
		nIn:    o.NumInputs(),
	}
	c.sc.Buffer(make([]byte, 1<<16), defaultMaxReply)
	if s.Ext != nil {
		defer s.Ext.ConnClosed(c)
	}
	fmt.Fprintf(c.w, "inputs %s\n", strings.Join(o.InputNames(), " "))
	fmt.Fprintf(c.w, "outputs %s\n", strings.Join(o.OutputNames(), " "))
	if c.w.Flush() != nil {
		return
	}
	for c.sc.Scan() {
		line := strings.TrimSpace(c.sc.Text())
		switch {
		case line == "quit":
			return

		case strings.HasPrefix(line, "proto "):
			if s.V1Only {
				if !c.Reply("error: unknown command") {
					return
				}
				continue
			}
			// Grant the lower of the requested and served levels; any
			// request >= 2 succeeds (a v2-only client gets exactly "ok 2"
			// back, byte-identical to the pre-extension protocol).
			v, err := strconv.Atoi(strings.TrimPrefix(line, "proto "))
			if err != nil || v < 2 {
				if !c.Reply(fmt.Sprintf("error: unsupported protocol %q", strings.TrimPrefix(line, "proto "))) {
					return
				}
				continue
			}
			granted := min(v, s.maxProto())
			c.proto = granted
			if !c.Reply(fmt.Sprintf("ok %d", granted)) {
				return
			}

		case strings.HasPrefix(line, "batch "):
			if s.V1Only {
				if !c.Reply("error: unknown command") {
					return
				}
				continue
			}
			k, err := strconv.Atoi(strings.TrimPrefix(line, "batch "))
			if err != nil || k < 1 || k > MaxFrame {
				// The declared frame length cannot be trusted, so the
				// stream cannot be resynchronized; drop the connection.
				c.Reply(fmt.Sprintf("error: bad batch size %q", strings.TrimPrefix(line, "batch ")))
				return
			}
			// Consume all k query lines before validating, keeping the
			// connection usable after a malformed line.
			lanes := make([]bitvec.Word, c.nIn*oracle.Words(k))
			lw := oracle.Words(k)
			var lineErr error
			for q := 0; q < k; q++ {
				if !c.sc.Scan() {
					return
				}
				a, err := parseBits(strings.TrimSpace(c.sc.Text()), c.nIn)
				if err != nil && lineErr == nil {
					lineErr = fmt.Errorf("batch line %d: %v", q+1, err)
				}
				for i, bit := range a {
					if bit {
						lanes[i*lw+q>>6] |= 1 << (uint(q) & 63)
					}
				}
			}
			if lineErr != nil {
				if !c.Reply("error: " + lineErr.Error()) {
					return
				}
				continue
			}
			out, err := c.evalBatch(lanes, k)
			if err != nil {
				if !c.replyEvalErr(err) {
					return
				}
				continue
			}
			fmt.Fprintf(c.w, "batch %d\n", k)
			buf := make([]byte, c.o.NumOutputs())
			for q := 0; q < k; q++ {
				c.w.Write(laneRow(buf, out, lw, q))
				c.w.WriteByte('\n')
			}
			if c.w.Flush() != nil {
				return
			}

		default:
			if s.Ext != nil && c.proto >= 3 {
				handled, keep := s.Ext.Handle(c, line)
				if handled {
					if !keep {
						return
					}
					continue
				}
			}
			assign, err := parseBits(line, c.nIn)
			if err != nil {
				if !c.Reply(fmt.Sprintf("error: %v", err)) {
					return
				}
				continue
			}
			lanes := make([]bitvec.Word, c.nIn)
			for i, bit := range assign {
				if bit {
					lanes[i] = 1
				}
			}
			out, err := c.evalBatch(lanes, 1)
			if err != nil {
				if !c.replyEvalErr(err) {
					return
				}
				continue
			}
			if !c.Reply(string(laneRow(make([]byte, c.o.NumOutputs()), out, 1, 0))) {
				return
			}
		}
	}
}

func parseBits(line string, want int) ([]bool, error) {
	if len(line) != want {
		return nil, fmt.Errorf("got %d bits, want %d", len(line), want)
	}
	out := make([]bool, want)
	for i := 0; i < want; i++ {
		switch line[i] {
		case '0':
		case '1':
			out[i] = true
		default:
			return nil, fmt.Errorf("bad bit %q at position %d", line[i], i)
		}
	}
	return out, nil
}

// laneRow renders pattern q of lane-packed results (lw words per lane) as
// one '0'/'1' per output into buf, which sets the output count.
func laneRow(buf []byte, lanes []bitvec.Word, lw, q int) []byte {
	for j := range buf {
		buf[j] = '0' + byte(lanes[j*lw+q>>6]>>(uint(q)&63)&1)
	}
	return buf
}

// DialConfig bounds a client session's patience. The zero value preserves
// the historical behaviour: no connect timeout, no I/O deadlines, a 1 MiB
// reply-line cap.
type DialConfig struct {
	// ConnectTimeout bounds the TCP dial (0 = wait forever).
	ConnectTimeout time.Duration
	// IOTimeout is armed as a fresh deadline before every read and every
	// flush: a server that stops answering mid-session surfaces as a
	// timeout error instead of silently eating the learner's time budget
	// (0 = no deadlines).
	IOTimeout time.Duration
	// MaxReply caps a single reply line in bytes (0 = 1 MiB). Oversized
	// replies fail the session instead of growing the buffer unboundedly.
	MaxReply int
}

// Client is an oracle.Oracle and oracle.Fallible backed by a remote ioserve
// server. It is safe for sequential use only (the learner is single-threaded
// per the contest rules). Transport failures panic with *oracle.Failure from
// EvalBatch and come back as errors from TryEvalBatch; for automatic retry
// and reconnection use ResilientClient.
type Client struct {
	conn     net.Conn
	cfg      DialConfig
	r        *bufio.Scanner
	w        *bufio.Writer
	ins      []string
	outs     []string
	proto    int   // negotiated protocol version: 1 until TryUpgrade succeeds
	v1Chunk  int   // v1 pipeline depth override (0 = v1PipelineChunk)
	queryErr error // first transport error; the session is dead once set
	closed   bool
}

// Dial connects to a server and reads the port-name greeting, with no
// deadlines (the historical default). The session starts at protocol v1;
// call TryUpgrade to negotiate v2 batch framing.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, DialConfig{})
}

// DialWith connects with explicit timeout bounds. Every error path closes
// the connection: a failed negotiation never leaks a file descriptor.
func DialWith(addr string, cfg DialConfig) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, cfg.ConnectTimeout)
	if err != nil {
		return nil, transportErr(err)
	}
	return NewClientConn(conn, cfg)
}

// NewClientConn builds a client over an already-established connection —
// an in-memory pipe, a proxied stream, anything net.Conn-shaped — and
// performs the greeting handshake on it. Error paths close conn.
func NewClientConn(conn net.Conn, cfg DialConfig) (*Client, error) {
	c := &Client{
		conn:  conn,
		cfg:   cfg,
		r:     bufio.NewScanner(conn),
		w:     bufio.NewWriter(conn),
		proto: 1,
	}
	maxReply := cfg.MaxReply
	if maxReply <= 0 {
		maxReply = defaultMaxReply
	}
	c.r.Buffer(make([]byte, 1<<16), maxReply)
	ins, err := c.readHeader("inputs")
	if err != nil {
		conn.Close()
		return nil, err
	}
	outs, err := c.readHeader("outputs")
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.ins, c.outs = ins, outs
	return c, nil
}

// DialV2 dials and negotiates protocol v2, transparently falling back to v1
// when the server predates batch framing. Negotiation failures close the
// connection.
func DialV2(addr string) (*Client, error) {
	return DialV2With(addr, DialConfig{})
}

// DialV2With is DialV2 with explicit timeout bounds.
func DialV2With(addr string, cfg DialConfig) (*Client, error) {
	c, err := DialWith(addr, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := c.tryUpgradeErr(); err != nil {
		c.conn.Close()
		return nil, err
	}
	return c, nil
}

func (c *Client) readHeader(keyword string) ([]string, error) {
	line, err := c.readLineErr()
	if err != nil {
		return nil, fmt.Errorf("ioserve: reading %s greeting: %w", keyword, err)
	}
	fields := strings.Fields(line)
	if len(fields) < 1 || fields[0] != keyword {
		return nil, transportErr(fmt.Errorf("ioserve: expected %q line, got %q", keyword, line))
	}
	return fields[1:], nil
}

// TryUpgrade negotiates protocol v2. A v1-only server answers the probe with
// an "error:" line (the probe parses as a malformed query there), which is
// the downgrade signal — the session stays on v1 and remains fully usable.
// Safe to call multiple times; returns whether the session speaks v2.
// Transport failures panic with *oracle.Failure.
func (c *Client) TryUpgrade() bool {
	ok, err := c.tryUpgradeErr()
	if err != nil {
		panic(oracle.NewFailure(err))
	}
	return ok
}

// tryUpgradeErr is the error-returning v2 upgrade negotiation.
func (c *Client) tryUpgradeErr() (bool, error) {
	v, err := c.UpgradeTo(2)
	return v >= 2, err
}

// UpgradeTo negotiates protocol level v (>= 2) and returns the level the
// session ends up on: the server grants the lower of the requested and
// served levels, and a v1-only server (which answers the probe with an
// "error:" line) leaves the session on 1, fully usable. Safe to call
// multiple times; a session never downgrades. Service-level clients
// (internal/serve) request 3 to unlock the extension verbs.
func (c *Client) UpgradeTo(v int) (int, error) {
	if v < 2 {
		panic(fmt.Sprintf("ioserve: UpgradeTo(%d): levels below 2 are not negotiable", v))
	}
	if c.proto >= v {
		return c.proto, nil
	}
	if err := c.usable(); err != nil {
		return 0, err
	}
	if err := c.send(fmt.Sprintf("proto %d\n", v)); err != nil {
		return 0, err
	}
	line, err := c.readLineErr()
	if err != nil {
		return 0, err
	}
	switch {
	case strings.HasPrefix(line, "ok "):
		n, err := strconv.Atoi(strings.TrimPrefix(line, "ok "))
		if err != nil || n < 2 || n > v {
			return 0, c.fail(transportErr(fmt.Errorf("ioserve: bad upgrade grant %q", line)))
		}
		if n > c.proto {
			c.proto = n
		}
		return c.proto, nil
	case strings.HasPrefix(line, "error:"):
		return c.proto, nil // old server: stay where we are
	default:
		return 0, c.fail(transportErr(fmt.Errorf("ioserve: unexpected upgrade reply %q", line)))
	}
}

// Exchange sends one raw protocol line and returns the server's single-line
// reply. It is the primitive service-level clients (internal/serve) build
// their verbs on; the core query paths never go through it. Transport
// failures poison the session and come back as errors (tagged transient
// when a reconnect may help).
func (c *Client) Exchange(cmd string) (string, error) {
	if err := c.usable(); err != nil {
		return "", err
	}
	if strings.ContainsAny(cmd, "\n\r") {
		panic(fmt.Sprintf("ioserve: Exchange command contains a line break: %q", cmd))
	}
	if err := c.send(cmd + "\n"); err != nil {
		return "", err
	}
	return c.readLineErr()
}

// ReadLine reads one additional reply line, for verbs whose replies span
// multiple lines (a result frame after its header).
func (c *Client) ReadLine() (string, error) {
	if err := c.usable(); err != nil {
		return "", err
	}
	return c.readLineErr()
}

// Proto returns the negotiated protocol version (1 or 2).
func (c *Client) Proto() int { return c.proto }

// Close ends the session politely and reports any error from the farewell
// write or the close itself. It is idempotent: second and later calls
// return nil without touching the connection.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	var werr error
	if c.queryErr == nil {
		// Only be polite on a healthy session; on a poisoned one the
		// stream state is unknown and "quit" would just be noise.
		if _, err := c.w.WriteString("quit\n"); err != nil {
			werr = err
		} else {
			c.armWrite()
			werr = c.w.Flush()
		}
	}
	cerr := c.conn.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

func (c *Client) NumInputs() int        { return len(c.ins) }
func (c *Client) NumOutputs() int       { return len(c.outs) }
func (c *Client) InputNames() []string  { return append([]string(nil), c.ins...) }
func (c *Client) OutputNames() []string { return append([]string(nil), c.outs...) }

// usable reports why the session cannot issue queries, if it cannot.
func (c *Client) usable() error {
	if c.closed {
		return ErrClientClosed
	}
	return c.queryErr
}

// armRead arms the per-read deadline.
func (c *Client) armRead() {
	if c.cfg.IOTimeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.cfg.IOTimeout))
	}
}

// armWrite arms the per-flush deadline.
func (c *Client) armWrite() {
	if c.cfg.IOTimeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.cfg.IOTimeout))
	}
}

// send writes and flushes one command, poisoning the session on failure.
func (c *Client) send(s string) error {
	if _, err := c.w.WriteString(s); err != nil {
		return c.fail(transportErr(err))
	}
	c.armWrite()
	if err := c.w.Flush(); err != nil {
		return c.fail(transportErr(err))
	}
	return nil
}

// readLineErr reads one reply line under the read deadline. Transport
// failures poison the session and come back tagged transient (a fresh
// connection may succeed where this one died).
func (c *Client) readLineErr() (string, error) {
	c.armRead()
	if !c.r.Scan() {
		err := c.r.Err()
		if err == nil {
			err = fmt.Errorf("ioserve: server closed connection")
		}
		return "", c.fail(transportErr(err))
	}
	return strings.TrimSpace(c.r.Text()), nil
}

// readReplyErr parses one <obits> reply line, classifying error replies per
// the wire failure model.
func (c *Client) readReplyErr() ([]bool, error) {
	line, err := c.readLineErr()
	if err != nil {
		return nil, err
	}
	switch {
	case strings.HasPrefix(line, "error: transient:"):
		// The server-side black box hiccuped but the stream is intact:
		// retryable in place, session not poisoned.
		return nil, &wireTransientError{msg: strings.TrimSpace(strings.TrimPrefix(line, "error:"))}
	case strings.HasPrefix(line, "error: fatal:"):
		return nil, c.fail(fmt.Errorf("ioserve: black box is dead: %s", strings.TrimSpace(strings.TrimPrefix(line, "error: fatal:"))))
	case strings.HasPrefix(line, "error:"):
		// A well-formed query was rejected: that is a client-side bug, not
		// a fault worth retrying.
		return nil, c.fail(fmt.Errorf("ioserve: server rejected query: %s", line))
	}
	out, err := parseBits(line, len(c.outs))
	if err != nil {
		// A reply that does not parse means the stream is desynchronized
		// (e.g. a corrupted line): unusable here, but a reconnect heals it.
		return nil, c.fail(transportErr(fmt.Errorf("ioserve: bad reply: %w", err)))
	}
	return out, nil
}

// EvalBatch sends the whole batch across the wire. On a v2 session it uses
// batch framing (one round trip per MaxFrame queries); on a v1 session it
// pipelines query lines in small chunks, which old servers answer
// line-by-line. Either way the bits returned are identical to n one-pattern
// queries. Transport failures panic with *oracle.Failure. The bare client
// has no recovery story for a dead black box, matching the contest setting
// where a dead iogen ends the run; use ResilientClient (or TryEvalBatch) for
// a learner that survives it.
func (c *Client) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	out, err := c.evalBatchErr(patterns, n)
	if err != nil {
		panic(oracle.NewFailure(err))
	}
	return out
}

// TryEvalBatch is EvalBatch with transport failures as error values
// (oracle.Fallible). An error rejects the whole batch.
func (c *Client) TryEvalBatch(patterns []bitvec.Word, n int) ([]bitvec.Word, error) {
	return c.evalBatchErr(patterns, n)
}

func (c *Client) evalBatchErr(patterns []bitvec.Word, n int) ([]bitvec.Word, error) {
	out := make([]bitvec.Word, len(c.outs)*oracle.Words(n))
	if _, err := c.evalBatchResume(patterns, n, 0, out); err != nil {
		return nil, err
	}
	return out, nil
}

// evalBatchResume is the resumable core of evalBatchErr, exposed to the
// resilient layer so a session that dies mid-batch doesn't forfeit the
// answers it already delivered. It issues the queries for patterns
// [start, n) and scatters replies into out, the caller-owned result lanes
// (len(c.outs)*Words(n) words). The return value is the count of leading
// patterns whose replies have been fully received: on error the caller
// retries with start set to that count, re-issuing only the unanswered
// tail — queries are pure, so a kept answer can never disagree with a
// re-issued one. Matters most on v1, where every reply is its own write
// and a large batch can outlive any single connection.
func (c *Client) evalBatchResume(patterns []bitvec.Word, n, start int, out []bitvec.Word) (int, error) {
	if err := c.usable(); err != nil {
		return start, err
	}
	nIn, nOut := len(c.ins), len(c.outs)
	w := oracle.Words(n)
	if want := nIn * w; len(patterns) != want {
		panic(fmt.Sprintf("ioserve: EvalBatch got %d lane words, want %d", len(patterns), want))
	}
	if want := nOut * w; len(out) != want {
		panic(fmt.Sprintf("ioserve: EvalBatch got %d result words, want %d", len(out), want))
	}
	frame := MaxFrame
	if c.proto < 2 {
		frame = v1PipelineChunk
		if c.v1Chunk > 0 {
			frame = c.v1Chunk
		}
	}
	qbuf := make([]byte, nIn)
	done := start
	for base := start; base < n; base += frame {
		k := min(n-base, frame)
		// Write the frame: a batch header on v2, bare query lines on v1.
		if c.proto >= 2 {
			fmt.Fprintf(c.w, "batch %d\n", k)
		}
		for q := 0; q < k; q++ {
			pat := base + q
			for i := 0; i < nIn; i++ {
				if patterns[i*w+pat>>6]>>(uint(pat)&63)&1 == 1 {
					qbuf[i] = '1'
				} else {
					qbuf[i] = '0'
				}
			}
			if _, err := c.w.Write(qbuf); err != nil {
				return done, c.fail(transportErr(err))
			}
			if err := c.w.WriteByte('\n'); err != nil {
				return done, c.fail(transportErr(err))
			}
		}
		c.armWrite()
		if err := c.w.Flush(); err != nil {
			return done, c.fail(transportErr(err))
		}
		// Read the replies.
		if c.proto >= 2 {
			header, err := c.readLineErr()
			if err != nil {
				return done, err
			}
			switch {
			case strings.HasPrefix(header, "error: transient:"):
				return done, &wireTransientError{msg: strings.TrimSpace(strings.TrimPrefix(header, "error:"))}
			case strings.HasPrefix(header, "error: fatal:"):
				return done, c.fail(fmt.Errorf("ioserve: black box is dead: %s", strings.TrimSpace(strings.TrimPrefix(header, "error: fatal:"))))
			case strings.HasPrefix(header, "error:"):
				return done, c.fail(fmt.Errorf("ioserve: server rejected batch: %s", header))
			case header != fmt.Sprintf("batch %d", k):
				return done, c.fail(transportErr(fmt.Errorf("ioserve: bad batch reply header %q", header)))
			}
		}
		for q := 0; q < k; q++ {
			res, err := c.readReplyErr()
			if err != nil {
				if isWireTransient(err) && c.proto < 2 {
					// v1 pipelining: the rest of the chunk's replies are
					// still in flight. Drain them so the stream stays
					// synchronized for the in-place retry.
					for d := q + 1; d < k; d++ {
						if _, derr := c.readLineErr(); derr != nil {
							return done, derr
						}
					}
				}
				return done, err
			}
			pat := base + q
			for j, bit := range res {
				if bit {
					out[j*w+pat>>6] |= 1 << (uint(pat) & 63)
				}
			}
			done = pat + 1
		}
	}
	return done, nil
}

// fail poisons the session and returns the error for the caller to
// propagate.
func (c *Client) fail(err error) error {
	if c.queryErr == nil {
		c.queryErr = err
	}
	return err
}

var (
	_ oracle.Oracle   = (*Client)(nil)
	_ oracle.Fallible = (*Client)(nil)
)
