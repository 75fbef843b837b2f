package transport

import (
	"errors"
	"io"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/leak"
	"sci/internal/wire"
)

func shortHelloTimeout(t *testing.T) {
	t.Helper()
	old := helloTimeout
	helloTimeout = 50 * time.Millisecond
	t.Cleanup(func() { helloTimeout = old })
}

type msgSink struct {
	mu   sync.Mutex
	msgs []wire.Message
	cond *sync.Cond
}

func newMsgSink() *msgSink {
	s := &msgSink{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *msgSink) handler(m wire.Message) {
	s.mu.Lock()
	s.msgs = append(s.msgs, m)
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *msgSink) waitFor(t *testing.T, n int) []wire.Message {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.msgs) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d messages, have %d", n, len(s.msgs))
		}
		done := make(chan struct{})
		go func() { time.Sleep(10 * time.Millisecond); s.cond.Broadcast(); close(done) }()
		s.cond.Wait()
		<-done
	}
	return append([]wire.Message(nil), s.msgs...)
}

func testBatchMsg(t *testing.T, src, dst guid.GUID, n int) wire.Message {
	t.Helper()
	events := make([]event.Event, n)
	dev := guid.New(guid.KindDevice)
	for i := range events {
		events[i] = event.New(ctxtype.TemperatureCelsius, dev, uint64(i),
			time.Unix(1700000000, int64(i)), map[string]any{"value": float64(i)})
	}
	m, err := wire.NewNativeEventBatch(src, dst, events, &wire.BatchCredit{Dropped: 5})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTCPNegotiatesBinary(t *testing.T) {
	tn := NewTCP(nil)
	defer tn.Close()

	a, b := guid.New(guid.KindServer), guid.New(guid.KindServer)
	sink := newMsgSink()
	if _, err := tn.Attach(b, sink.handler); err != nil {
		t.Fatal(err)
	}
	epA, err := tn.Attach(a, func(wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}

	m := testBatchMsg(t, a, b, 8)
	if err := epA.Send(m); err != nil {
		t.Fatal(err)
	}
	got := sink.waitFor(t, 1)
	if got[0].Batch == nil {
		t.Fatal("binary connection should deliver a native batch")
	}
	if len(got[0].Batch.Events) != 8 || got[0].Batch.Credit == nil || got[0].Batch.Credit.Dropped != 5 {
		t.Fatalf("batch content: %+v", got[0].Batch)
	}

	st := epA.(WireStatser).WireStats()
	if st.Codecs[string(wire.CodecBinary)] != 1 {
		t.Fatalf("expected one binary connection, stats %+v", st)
	}
	if st.BytesSent == 0 {
		t.Fatalf("bytes sent not counted: %+v", st)
	}
}

// TestTCPNetworkWideCodecJSON: SetDefaultCodec(JSON) puts the debugging encoding
// on the wire — and it is an encoding of the same message, so the receiver
// still sees the batch in Message.Batch.
func TestTCPNetworkWideCodecJSON(t *testing.T) {
	tn := NewTCP(nil)
	defer tn.Close()
	tn.SetDefaultCodec(wire.CodecJSON)

	a, b := guid.New(guid.KindServer), guid.New(guid.KindServer)
	sink := newMsgSink()
	if _, err := tn.Attach(b, sink.handler); err != nil {
		t.Fatal(err)
	}
	epA, err := tn.Attach(a, func(wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := epA.Send(testBatchMsg(t, a, b, 4)); err != nil {
		t.Fatal(err)
	}
	got := sink.waitFor(t, 1)
	if got[0].Batch == nil || len(got[0].Batch.Events) != 4 {
		t.Fatalf("JSON connection must deliver the batch decoded: %+v", got[0])
	}
	if c, ok := got[0].BatchCreditInfo(); !ok || c.Dropped != 5 {
		t.Fatalf("credit lost on the JSON encoding: %+v ok=%v", c, ok)
	}
	if st := epA.(WireStatser).WireStats(); st.Codecs[string(wire.CodecJSON)] != 1 {
		t.Fatalf("expected one json connection, stats %+v", st)
	}
}

// fakePeer is a hand-rolled accept side: it reads the dialer's hello and
// answers with whatever the test case says (nothing, when answer is nil),
// then holds the connection open until the dialer closes it.
func fakePeer(t *testing.T, answer func(hello wire.Message) *wire.Message) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			dec := wire.NewDecoder(conn)
			if hello, err := dec.Read(); err == nil {
				if m := answer(hello); m != nil {
					_ = wire.NewEncoder(conn, wire.CodecJSON).Write(*m)
				}
				_, _ = dec.Read() // park until the dialer gives the socket up
			}
			_ = conn.Close()
		}
	}()
	return ln.Addr().String(), func() { _ = ln.Close(); wg.Wait() }
}

// TestTCPVersionMismatchAtConnect: a peer that answers the hello with another
// version, with something that is not a hello, or not at all is a typed
// connect error — never a downgrade — and once the peer is fixed the very
// next Send redials and succeeds.
func TestTCPVersionMismatchAtConnect(t *testing.T) {
	shortHelloTimeout(t)
	reply := func(hello wire.Message, kind wire.Kind, body any) *wire.Message {
		m, err := hello.Reply(kind, body)
		if err != nil {
			t.Error(err)
			return nil
		}
		return &m
	}
	cases := []struct {
		name   string
		answer func(hello wire.Message) *wire.Message
	}{
		{"other version", func(h wire.Message) *wire.Message {
			return reply(h, wire.KindCodecHello, wire.CodecHello{Version: protocolVersion + 1, Chosen: wire.CodecBinary})
		}},
		{"versionless hello", func(h wire.Message) *wire.Message {
			return reply(h, wire.KindCodecHello, map[string]string{"chosen": "binary"})
		}},
		{"not a hello", func(h wire.Message) *wire.Message {
			return reply(h, wire.KindHeartbeat, map[string]string{"hb": "1"})
		}},
		{"never answers", func(wire.Message) *wire.Message { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer leak.Check(t)()
			addr, stop := fakePeer(t, tc.answer)
			defer stop()

			tn := NewTCP(nil)
			defer tn.Close()
			a, b := guid.New(guid.KindServer), guid.New(guid.KindServer)
			tn.Directory().Register(b, addr)
			epA, err := tn.Attach(a, func(wire.Message) {})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ { // a failed hello is never cached
				if err := epA.Send(testBatchMsg(t, a, b, 2)); !errors.Is(err, ErrProtocolVersion) {
					t.Fatalf("send %d: want ErrProtocolVersion, got %v", i, err)
				}
			}
			if st := epA.(WireStatser).WireStats(); len(st.Codecs) != 0 {
				t.Fatalf("no connection may survive a failed hello: %+v", st)
			}

			// The peer is fixed: b now attaches as a real endpoint.
			sink := newMsgSink()
			if _, err := tn.Attach(b, sink.handler); err != nil {
				t.Fatal(err)
			}
			if err := epA.Send(testBatchMsg(t, a, b, 2)); err != nil {
				t.Fatalf("send after the peer was fixed: %v", err)
			}
			if got := sink.waitFor(t, 1); got[0].Batch == nil {
				t.Fatalf("delivery after redial: %+v", got[0])
			}
		})
	}
}

// TestTCPAcceptSideVersionCheck: nothing reaches the handler from a
// connection whose first frame is not a hello of this side's version, the
// accept side closes it, and a dialer of another version is told ours.
func TestTCPAcceptSideVersionCheck(t *testing.T) {
	defer leak.Check(t)()
	tn := NewTCP(nil)
	defer tn.Close()
	b := guid.New(guid.KindServer)
	sink := newMsgSink()
	epB, err := tn.Attach(b, sink.handler)
	if err != nil {
		t.Fatal(err)
	}
	addr := epB.(*tcpEndpoint).Addr()
	src := guid.New(guid.KindServer)
	hb := wire.Message{Src: src, Dst: b, Kind: wire.KindHeartbeat}
	oldHello, err := wire.NewMessage(src, b, wire.KindCodecHello,
		wire.CodecHello{Version: protocolVersion + 1, Codecs: []wire.Codec{wire.CodecBinary}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		first      wire.Message
		wantAnswer bool
	}{
		{"first frame not a hello", hb, false},
		{"hello of another version", oldHello, true},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		enc := wire.NewEncoder(conn, wire.CodecJSON)
		if err := enc.Write(tc.first); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_ = enc.Write(hb) // must never be delivered
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		dec := wire.NewDecoder(conn)
		m, err := dec.Read()
		if tc.wantAnswer {
			var h wire.CodecHello
			if err != nil || m.Kind != wire.KindCodecHello || m.DecodeBody(&h) != nil || h.Version != protocolVersion {
				t.Fatalf("%s: want a hello answer stating version %d, got %+v, %v", tc.name, protocolVersion, m, err)
			}
			_, err = dec.Read()
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) {
			t.Fatalf("%s: accept side must close the connection, read returned %v", tc.name, err)
		}
		_ = conn.Close()
	}
	sink.mu.Lock()
	n := len(sink.msgs)
	sink.mu.Unlock()
	if n != 0 {
		t.Fatalf("handler saw %d frames from connections that never established the version", n)
	}
}

// TestMemoryNativePassthroughAndForcedJSON: the memory network has no wire,
// so a batch arrives pointer-identical — also when the factory's
// network-wide Codec asks for JSON, which only TCP can honour.
func TestMemoryNativePassthroughAndForcedJSON(t *testing.T) {
	net, err := New(Config{Codec: wire.CodecJSON})
	if err != nil {
		t.Fatal(err)
	}
	n := net.(*Memory)
	defer n.Close()

	a, b := guid.New(guid.KindServer), guid.New(guid.KindServer)
	sink := newMsgSink()
	if _, err := n.Attach(b, sink.handler); err != nil {
		t.Fatal(err)
	}
	epA, err := n.Attach(a, func(wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	m := testBatchMsg(t, a, b, 3)
	if err := epA.Send(m); err != nil {
		t.Fatal(err)
	}
	if got := sink.waitFor(t, 1); got[0].Batch != m.Batch {
		t.Fatal("memory delivery must pass the native batch pointer through untouched")
	}
	if st := epA.(WireStatser).WireStats(); st.Codecs["native"] != 1 || len(st.Codecs) != 1 {
		t.Fatalf("memory endpoints report native: %+v", st)
	}
}

func TestFactoryBackends(t *testing.T) {
	n, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := n.(*Memory); !ok {
		t.Fatalf("default backend should be memory, got %T", n)
	}
	_ = n.Close()

	tcp, err := New(Config{Backend: "tcp", Codec: wire.CodecJSON})
	if err != nil {
		t.Fatal(err)
	}
	if tcp.(*TCP).defaultCodec() != wire.CodecJSON {
		t.Fatal("factory Codec knob should set the default codec")
	}
	_ = tcp.Close()

	if _, err := New(Config{Backend: "carrier-pigeon"}); err == nil {
		t.Fatal("unknown backend must error")
	}
	found := false
	for _, name := range Backends() {
		if name == "tcp" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Backends() missing tcp: %v", Backends())
	}
}
