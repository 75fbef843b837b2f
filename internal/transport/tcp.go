package transport

import (
	"errors"
	"fmt"
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
// the accept side's hello answer, and an accepting endpoint for the dialer's
// hello, before giving the connection up. A variable only so tests can
// shorten it.
var helloTimeout = 5 * time.Second

// TCP is a Network over real TCP sockets. Each attached endpoint owns a
// listener and keeps one connection per peer, used both ways: whichever end
// dialed it, it carries the sends to the peer and the peer's frames to the
// handler, so a reply rides the connection its request came on. Each opens
// with a hello stating the protocol version (see internal/wire: the version
// rule). Construct with NewTCP.
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
		id:    id,
		net:   t,
		ln:    ln,
		h:     h,
		live:  make(map[*tcpConn]struct{}),
		conns: make(map[guid.GUID]*tcpConn),
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

	mu sync.Mutex
	// live holds every connection whose read loop runs, none of them shut;
	// conns is the one of them to send on, per peer. The Directory is asked
	// only for a peer with nothing filed in conns.
	live   map[*tcpConn]struct{}
	conns  map[guid.GUID]*tcpConn
	closed bool

	// Bytes accumulated from connections that have since died; live
	// connections are summed on top in WireStats.
	deadSent atomic.Uint64
	deadRecv atomic.Uint64

	wg sync.WaitGroup
}

// tcpConn is one socket with one encoder and one decoder for its whole
// life, the hello included. Its read loop alone uses the decoder.
type tcpConn struct {
	c   net.Conn
	dec *wire.Decoder

	mu   sync.Mutex // serialises writers
	enc  *wire.Encoder
	dead bool
}

func newTCPConn(raw net.Conn) *tcpConn {
	return &tcpConn{c: raw, dec: wire.NewDecoder(raw), enc: wire.NewEncoder(raw, wire.CodecBinary)}
}

// write frames m onto the connection, failing once it is shut.
func (c *tcpConn) write(m wire.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return net.ErrClosed
	}
	return c.enc.Write(m)
}

// shut marks the connection dead exactly once, folds its sent bytes into
// the endpoint totals, returns the encoder's pooled buffer, and closes the
// socket, which ends the read loop.
func (c *tcpConn) shut(ep *tcpEndpoint) {
	c.mu.Lock()
	if !c.dead {
		c.dead = true
		ep.deadSent.Add(c.enc.BytesWritten())
		c.enc.Release()
	}
	c.mu.Unlock()
	_ = c.c.Close()
}

// discard shuts c and retires its decoder; the read loop's last act, or
// the dialer's for a connection that never got one.
func (ep *tcpEndpoint) discard(c *tcpConn) {
	c.shut(ep)
	ep.deadRecv.Add(c.dec.BytesRead())
	c.dec.Release()
}

// forget takes c out of the live set and, if it is the one filed for
// peer, out of conns, so the next send to peer asks the Directory.
func (ep *tcpEndpoint) forget(peer guid.GUID, c *tcpConn) {
	ep.mu.Lock()
	delete(ep.live, c)
	if ep.conns[peer] == c {
		delete(ep.conns, peer)
	}
	ep.mu.Unlock()
}

// ID implements Endpoint.
func (ep *tcpEndpoint) ID() guid.GUID { return ep.id }

// Send implements Endpoint.
func (ep *tcpEndpoint) Send(m wire.Message) error {
	if err := validateOutbound(m); err != nil {
		return err
	}
	c, err := ep.connTo(m.Dst)
	if err != nil {
		return err
	}
	if err := c.write(m); err != nil {
		// Connection went bad: forget it so the next send redials.
		ep.forget(m.Dst, c)
		c.shut(ep)
		return fmt.Errorf("transport: send to %s: %w", m.Dst.Short(), err)
	}
	return nil
}

// WireStats implements WireStatser: the live connections, every one of
// them binary, plus bytes across every connection this endpoint ever had.
func (ep *tcpEndpoint) WireStats() WireStats {
	st := WireStats{Codecs: make(map[string]int)}
	ep.mu.Lock()
	for c := range ep.live {
		st.Codecs["binary"]++
		st.BytesSent += c.enc.BytesWritten()
		st.BytesReceived += c.dec.BytesRead()
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
	for c := range ep.live {
		delete(ep.live, c)
		c.shut(ep)
	}
	ep.mu.Unlock()

	ep.net.dir.Unregister(ep.id)
	_ = ep.ln.Close()
	ep.wg.Wait()
}

func (ep *tcpEndpoint) isClosed() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.closed
}

// connTo returns the connection filed for dst, or dials dst's Directory
// address. A dial that loses a race to a connection filed meanwhile stays
// live and readable; the one filed first carries the sends.
func (ep *tcpEndpoint) connTo(dst guid.GUID) (*tcpConn, error) {
	ep.mu.Lock()
	c, ok := ep.conns[dst]
	closed := ep.closed
	ep.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if ok {
		return c, nil
	}

	addr, ok := ep.net.dir.Lookup(dst)
	if !ok {
		return nil, ErrUnknownDestination
	}
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s (%s): %w", dst.Short(), addr, err)
	}
	c = newTCPConn(raw)
	if err := ep.hello(c, dst); err != nil {
		ep.discard(c)
		return nil, fmt.Errorf("transport: hello to %s: %w", dst.Short(), err)
	}

	return ep.adopt(c, dst)
}

// adopt puts c in the live set, files it for peer unless a connection is
// filed already, and starts its read loop. peer is Nil for an accepted
// connection until its hello names it. It returns the one filed for peer.
func (ep *tcpEndpoint) adopt(c *tcpConn, peer guid.GUID) (*tcpConn, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		ep.discard(c)
		return nil, ErrClosed
	}
	ep.live[c] = struct{}{}
	if _, ok := ep.conns[peer]; !ok && !peer.IsNil() {
		ep.conns[peer] = c
	}
	ep.wg.Add(1)
	go ep.serve(c, peer)
	return ep.conns[peer], nil
}

// hello opens a dialed connection: it states this side's protocol version
// and waits at most helloTimeout for the accept side's answer. It returns
// ErrProtocolVersion when the peer answers with another version, with
// something that is not a well-formed hello, or not at all.
func (ep *tcpEndpoint) hello(c *tcpConn, dst guid.GUID) error {
	m, err := wire.NewMessage(ep.id, dst, wire.KindHello, wire.Hello{Version: protocolVersion})
	if err != nil {
		return err
	}
	if err := c.write(m); err != nil {
		return err
	}
	answer, err := c.readHello()
	if err != nil {
		return fmt.Errorf("%w: no hello answer: %v", ErrProtocolVersion, err)
	}
	var h wire.Hello
	if answer.Kind != wire.KindHello || answer.DecodeBody(&h) != nil {
		return fmt.Errorf("%w: peer answered with %s, not a hello", ErrProtocolVersion, answer.Kind)
	}
	if h.Version != protocolVersion {
		return fmt.Errorf("%w: peer speaks %d, this side %d", ErrProtocolVersion, h.Version, protocolVersion)
	}
	return nil
}

func (ep *tcpEndpoint) acceptLoop() {
	for {
		raw, err := ep.ln.Accept()
		if err != nil {
			if ep.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept error: keep serving.
			continue
		}
		if _, err := ep.adopt(newTCPConn(raw), guid.Nil); err != nil {
			return
		}
	}
}

// serve is a connection's read loop, which hands each frame to the handler.
// An accepted connection (peer Nil) must open with a hello of this side's
// version, else nothing of it reaches the handler; once answered, it is
// filed under the hello's Src unless a connection is filed for that peer.
func (ep *tcpEndpoint) serve(c *tcpConn, peer guid.GUID) {
	defer ep.wg.Done()
	defer func() {
		ep.forget(peer, c)
		ep.discard(c)
	}()
	if peer.IsNil() {
		m, err := c.readHello()
		if err != nil || !ep.answerHello(c, m) {
			return
		}
		peer = m.Src
		ep.mu.Lock()
		if _, ok := ep.conns[peer]; !ok {
			ep.conns[peer] = c
		}
		ep.mu.Unlock()
	}
	for {
		m, err := c.dec.Read()
		if err != nil {
			return // EOF, peer close, or framing error: drop the connection
		}
		if ep.isClosed() {
			return
		}
		ep.h(m)
	}
}

// readHello reads a connection's first frame, the dialer's hello or the
// accept side's answer, waiting at most helloTimeout: a peer that connects
// and stays silent gives its connection up instead of holding it, and the
// read loop behind it, for as long as it likes. A hello read in time
// clears the deadline for the frames that follow.
func (c *tcpConn) readHello() (wire.Message, error) {
	//lint:allow clockcheck kernel socket deadlines are absolute wall-clock instants
	_ = c.c.SetReadDeadline(time.Now().Add(helloTimeout))
	m, err := c.dec.Read()
	if err == nil {
		_ = c.c.SetReadDeadline(time.Time{})
	}
	return m, err
}

// answerHello answers a dialer's hello with this side's protocol version
// and reports whether the connection may proceed: the frame was a hello,
// the versions are equal and the answer was written. A dialer of another
// version still gets the answer, so its error names both versions.
func (ep *tcpEndpoint) answerHello(c *tcpConn, m wire.Message) bool {
	var h wire.Hello
	if m.Kind != wire.KindHello || m.DecodeBody(&h) != nil {
		return false
	}
	reply, err := m.Reply(wire.KindHello, wire.Hello{Version: protocolVersion})
	if err != nil {
		return false
	}
	return c.write(reply) == nil && h.Version == protocolVersion
}

var (
	_ Network     = (*TCP)(nil)
	_ Endpoint    = (*tcpEndpoint)(nil)
	_ WireStatser = (*tcpEndpoint)(nil)
)
