package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sci/internal/guid"
	"sci/internal/wire"
)

// Directory maps GUIDs to network addresses for the TCP transport. In a
// deployment it is seeded from configuration or from Range discovery
// announcements; the GUID→address binding is exactly the indirection the
// paper's overlay premise requires. Safe for concurrent use; the zero value
// is usable.
type Directory struct {
	mu    sync.RWMutex
	addrs map[guid.GUID]string
}

// Register binds id to addr, replacing any previous binding.
func (d *Directory) Register(id guid.GUID, addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.addrs == nil {
		d.addrs = make(map[guid.GUID]string)
	}
	d.addrs[id] = addr
}

// Unregister removes id's binding.
func (d *Directory) Unregister(id guid.GUID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.addrs, id)
}

// Lookup resolves id to an address.
func (d *Directory) Lookup(id guid.GUID) (string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	a, ok := d.addrs[id]
	return a, ok
}

// Len returns the number of bindings.
func (d *Directory) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.addrs)
}

// protocolVersion names the one message set this build speaks (internal/wire
// doc.go). Both ends of a connection state theirs in the hello; anything
// but equality is ErrProtocolVersion. Version 5 changed the JSON shape of
// the SCINET control bodies: the sender comes from the envelope, so no body
// carries an origin or owner field (interests keep Owner, which re-gossip
// carries past the first hop), and an interest announcement is the owner's
// whole set — the delta form and its resync request are gone.
const protocolVersion = 5

// helloTimeout is the connect bound: how long a dialing endpoint waits for
// the accept side's hello answer before giving the connection up. A variable
// only so tests can shorten it.
var helloTimeout = 5 * time.Second

// TCP is a Network over real TCP sockets. Each attached endpoint owns a
// listener; outbound connections are cached per destination and exchange a
// hello stating the protocol version at dial time (see internal/wire: the
// version rule). Construct with NewTCP.
type TCP struct {
	dir *Directory

	mu     sync.Mutex
	eps    map[guid.GUID]*tcpEndpoint
	closed bool
	wg     sync.WaitGroup
}

// NewTCP builds a TCP network resolving destinations through dir. A nil dir
// gets a private empty directory (endpoints it attaches still register).
func NewTCP(dir *Directory) *TCP {
	if dir == nil {
		dir = &Directory{}
	}
	return &TCP{dir: dir, eps: make(map[guid.GUID]*tcpEndpoint)}
}

// Directory exposes the GUID→address directory (for seeding remote peers).
func (t *TCP) Directory() *Directory { return t.dir }

// Attach implements Network: it opens a listener on 127.0.0.1:0 (or the
// address previously registered for id in the directory, enabling fixed
// ports for cmd/scid) and serves inbound frames to h.
func (t *TCP) Attach(id guid.GUID, h Handler) (Endpoint, error) {
	return t.AttachAddr(id, "127.0.0.1:0", h)
}

// AttachAddr attaches with an explicit listen address.
func (t *TCP) AttachAddr(id guid.GUID, listenAddr string, h Handler) (Endpoint, error) {
	if h == nil {
		return nil, wire.ErrBadMessage
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	if _, dup := t.eps[id]; dup {
		t.mu.Unlock()
		return nil, duplicateAttachError(id)
	}
	t.mu.Unlock()

	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	ep := &tcpEndpoint{
		id:       id,
		net:      t,
		ln:       ln,
		h:        h,
		conns:    make(map[guid.GUID]*tcpConn),
		liveDecs: make(map[*wire.Decoder]struct{}),
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		_ = ln.Close()
		return nil, ErrClosed
	}
	t.eps[id] = ep
	t.wg.Add(1)
	t.mu.Unlock()

	t.dir.Register(id, ln.Addr().String())

	go func() {
		defer t.wg.Done()
		ep.acceptLoop()
	}()
	return ep, nil
}

// Close implements Network.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.wg.Wait()
		return nil
	}
	t.closed = true
	eps := make([]*tcpEndpoint, 0, len(t.eps))
	for _, ep := range t.eps {
		eps = append(eps, ep)
	}
	t.eps = make(map[guid.GUID]*tcpEndpoint)
	t.mu.Unlock()
	for _, ep := range eps {
		ep.shutdown()
	}
	t.wg.Wait()
	return nil
}

type tcpEndpoint struct {
	id  guid.GUID
	net *TCP
	ln  net.Listener
	h   Handler

	mu       sync.Mutex
	conns    map[guid.GUID]*tcpConn
	served   []net.Conn // inbound connections, closed on shutdown
	liveDecs map[*wire.Decoder]struct{}
	closed   bool

	// Bytes accumulated from connections that have since died; live
	// connections are summed on top in WireStats.
	deadSent atomic.Uint64
	deadRecv atomic.Uint64

	wg sync.WaitGroup
}

type tcpConn struct {
	mu   sync.Mutex // serialises writers
	c    net.Conn
	enc  *wire.Encoder
	dead bool
}

// finalize marks the connection dead exactly once, folds its byte count into
// the endpoint totals, returns its pooled buffer, and closes the socket.
func (c *tcpConn) finalize(ep *tcpEndpoint) {
	c.mu.Lock()
	if !c.dead {
		c.dead = true
		ep.deadSent.Add(c.enc.BytesWritten())
		c.enc.Release()
	}
	c.mu.Unlock()
	_ = c.c.Close()
}

// ID implements Endpoint.
func (ep *tcpEndpoint) ID() guid.GUID { return ep.id }

// Addr returns the endpoint's listen address.
func (ep *tcpEndpoint) Addr() string { return ep.ln.Addr().String() }

// Send implements Endpoint.
func (ep *tcpEndpoint) Send(m wire.Message) error {
	if err := validateOutbound(m); err != nil {
		return err
	}
	conn, err := ep.connTo(m.Dst)
	if err != nil {
		return err
	}
	conn.mu.Lock()
	if conn.dead {
		conn.mu.Unlock()
		return fmt.Errorf("transport: send to %s: %w", m.Dst.Short(), net.ErrClosed)
	}
	err = conn.enc.Write(m)
	conn.mu.Unlock()
	if err != nil {
		// Connection went bad: forget it so the next send redials.
		ep.dropConn(m.Dst, conn)
		return fmt.Errorf("transport: send to %s: %w", m.Dst.Short(), err)
	}
	return nil
}

// WireStats implements WireStatser: the live outbound connections, every
// one of them binary, plus bytes across every connection this endpoint
// ever had.
func (ep *tcpEndpoint) WireStats() WireStats {
	st := WireStats{Codecs: make(map[string]int)}
	ep.mu.Lock()
	for _, c := range ep.conns {
		c.mu.Lock()
		if !c.dead {
			st.Codecs["binary"]++
			st.BytesSent += c.enc.BytesWritten()
		}
		c.mu.Unlock()
	}
	for d := range ep.liveDecs {
		st.BytesReceived += d.BytesRead()
	}
	ep.mu.Unlock()
	st.BytesSent += ep.deadSent.Load()
	st.BytesReceived += ep.deadRecv.Load()
	return st
}

// Close implements Endpoint.
func (ep *tcpEndpoint) Close() error {
	ep.net.mu.Lock()
	if ep.net.eps[ep.id] == ep {
		delete(ep.net.eps, ep.id)
	}
	ep.net.mu.Unlock()
	ep.shutdown()
	return nil
}

func (ep *tcpEndpoint) shutdown() {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		ep.wg.Wait()
		return
	}
	ep.closed = true
	conns := ep.conns
	ep.conns = make(map[guid.GUID]*tcpConn)
	served := ep.served
	ep.served = nil
	ep.mu.Unlock()

	ep.net.dir.Unregister(ep.id)
	_ = ep.ln.Close()
	for _, c := range conns {
		c.finalize(ep)
	}
	for _, c := range served {
		_ = c.Close()
	}
	ep.wg.Wait()
}

func (ep *tcpEndpoint) isClosed() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.closed
}

func (ep *tcpEndpoint) connTo(dst guid.GUID) (*tcpConn, error) {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := ep.conns[dst]; ok {
		ep.mu.Unlock()
		return c, nil
	}
	ep.mu.Unlock()

	addr, ok := ep.net.dir.Lookup(dst)
	if !ok {
		return nil, ErrUnknownDestination
	}
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s (%s): %w", dst.Short(), addr, err)
	}
	enc := wire.NewEncoder(raw, wire.CodecBinary)
	if err := ep.hello(raw, enc, dst); err != nil {
		enc.Release()
		_ = raw.Close()
		return nil, fmt.Errorf("transport: hello to %s: %w", dst.Short(), err)
	}
	c := &tcpConn{c: raw, enc: enc}

	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		c.finalize(ep)
		return nil, ErrClosed
	}
	if existing, ok := ep.conns[dst]; ok {
		// Lost a dial race; use the winner.
		ep.mu.Unlock()
		c.finalize(ep)
		return existing, nil
	}
	ep.conns[dst] = c
	ep.mu.Unlock()

	// Outbound connections are write-only; drain and discard any reverse
	// traffic so the peer's writes never block. (Peers reply via their own
	// dialed connections, keyed by GUID, not by socket.)
	ep.wg.Add(1)
	go func() {
		defer ep.wg.Done()
		_, _ = io.Copy(io.Discard, raw)
	}()
	return c, nil
}

// hello opens an outbound connection: it states this side's protocol
// version and waits at most helloTimeout for the accept side's answer — the
// only read ever issued on an outbound connection; past it, reverse traffic
// drains to io.Discard. It returns ErrProtocolVersion when the peer answers
// with another version, with something that is not a well-formed hello, or
// not at all.
func (ep *tcpEndpoint) hello(raw net.Conn, enc *wire.Encoder, dst guid.GUID) error {
	m, err := wire.NewMessage(ep.id, dst, wire.KindHello, wire.Hello{Version: protocolVersion})
	if err != nil {
		return err
	}
	if err := enc.Write(m); err != nil {
		return err
	}
	//lint:allow clockcheck kernel socket deadlines are absolute wall-clock instants
	_ = raw.SetReadDeadline(time.Now().Add(helloTimeout))
	dec := wire.NewDecoder(raw)
	defer dec.Release()
	answer, err := dec.Read()
	if err != nil {
		return fmt.Errorf("%w: no hello answer: %v", ErrProtocolVersion, err)
	}
	_ = raw.SetReadDeadline(time.Time{})
	var h wire.Hello
	if answer.Kind != wire.KindHello || answer.DecodeBody(&h) != nil {
		return fmt.Errorf("%w: peer answered with %s, not a hello", ErrProtocolVersion, answer.Kind)
	}
	if h.Version != protocolVersion {
		return fmt.Errorf("%w: peer speaks %d, this side %d", ErrProtocolVersion, h.Version, protocolVersion)
	}
	return nil
}

func (ep *tcpEndpoint) dropConn(dst guid.GUID, c *tcpConn) {
	ep.mu.Lock()
	if ep.conns[dst] == c {
		delete(ep.conns, dst)
	}
	ep.mu.Unlock()
	c.finalize(ep)
}

func (ep *tcpEndpoint) acceptLoop() {
	for {
		conn, err := ep.ln.Accept()
		if err != nil {
			if ep.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept error: keep serving.
			continue
		}
		ep.mu.Lock()
		if ep.closed {
			ep.mu.Unlock()
			_ = conn.Close()
			return
		}
		ep.served = append(ep.served, conn)
		ep.wg.Add(1)
		ep.mu.Unlock()
		go func() {
			defer ep.wg.Done()
			ep.serveConn(conn)
		}()
	}
}

func (ep *tcpEndpoint) serveConn(conn net.Conn) {
	defer conn.Close()
	dec := wire.NewDecoder(conn)
	ep.mu.Lock()
	ep.liveDecs[dec] = struct{}{}
	ep.mu.Unlock()
	defer func() {
		ep.mu.Lock()
		delete(ep.liveDecs, dec)
		ep.mu.Unlock()
		ep.deadRecv.Add(dec.BytesRead())
		dec.Release()
	}()
	// The first frame must be the dialer's hello; nothing reaches the handler
	// from a connection that has not agreed on the protocol version.
	if m, err := dec.Read(); err != nil || !ep.answerHello(conn, m) {
		return
	}
	for {
		m, err := dec.Read()
		if err != nil {
			return // EOF, peer close, or framing error: drop the connection
		}
		if ep.isClosed() {
			return
		}
		ep.h(m)
	}
}

// answerHello answers a dialer's hello with this side's protocol version —
// the only bytes the accept side ever writes on an inbound connection — and
// reports whether the connection may proceed: the frame was a hello, the
// versions are equal and the answer was written. A dialer of another
// version still gets the answer, so its error names both versions.
func (ep *tcpEndpoint) answerHello(conn net.Conn, m wire.Message) bool {
	var h wire.Hello
	if m.Kind != wire.KindHello || m.DecodeBody(&h) != nil {
		return false
	}
	reply, err := m.Reply(wire.KindHello, wire.Hello{Version: protocolVersion})
	if err != nil {
		return false
	}
	enc := wire.NewEncoder(conn, wire.CodecBinary)
	defer enc.Release()
	return enc.Write(reply) == nil && h.Version == protocolVersion
}

var (
	_ Network     = (*TCP)(nil)
	_ Endpoint    = (*tcpEndpoint)(nil)
	_ WireStatser = (*tcpEndpoint)(nil)
)
