package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
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

// waitFor blocks until the sink holds n messages, failing the test after 5
// seconds. The deadline timer broadcasts under the lock, so the wakeup it
// sends cannot slip between the expiry check and cond.Wait.
func (s *msgSink) waitFor(t *testing.T, n int) []wire.Message {
	t.Helper()
	expired := false
	timer := time.AfterFunc(5*time.Second, func() {
		s.mu.Lock()
		expired = true
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.msgs) < n {
		if expired {
			t.Fatalf("timed out waiting for %d messages, have %d", n, len(s.msgs))
		}
		s.cond.Wait()
	}
	return append([]wire.Message(nil), s.msgs...)
}

// frame is m as the binary codec puts it on the wire. It reports failure
// with t.Error, so fakePeer's goroutine may call it.
func frame(t *testing.T, m wire.Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.NewEncoder(&buf, wire.CodecBinary).Write(m); err != nil {
		t.Error(err)
		return nil
	}
	return buf.Bytes()
}

// jsonFrame is v as a protocol-3 peer framed it: length-prefixed JSON text.
func jsonFrame(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(b))), b...)
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
	if st.Codecs["binary"] != 1 {
		t.Fatalf("expected one binary connection, stats %+v", st)
	}
	if st.BytesSent == 0 {
		t.Fatalf("bytes sent not counted: %+v", st)
	}
}

// fakePeer is a hand-rolled accept side: it reads the dialer's hello and
// writes back whatever bytes the test case says (nothing, when answer
// returns nil), then holds the connection open until the dialer closes it.
func fakePeer(t *testing.T, answer func(hello wire.Message) []byte) (addr string, stop func()) {
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
				if b := answer(hello); b != nil {
					_, _ = conn.Write(b)
				}
				_, _ = dec.Read() // park until the dialer gives the socket up
			}
			_ = conn.Close()
		}
	}()
	return ln.Addr().String(), func() { _ = ln.Close(); wg.Wait() }
}

// TestTCPVersionMismatchAtConnect: a peer that answers the hello with another
// version, with something that is not a hello, in the retired JSON encoding
// or not at all is a typed connect error — never a downgrade — and once the
// peer is fixed the very next Send redials and succeeds.
func TestTCPVersionMismatchAtConnect(t *testing.T) {
	shortHelloTimeout(t)
	reply := func(hello wire.Message, kind wire.Kind, body any) []byte {
		m, err := hello.Reply(kind, body)
		if err != nil {
			t.Error(err)
			return nil
		}
		return frame(t, m)
	}
	// A protocol-3 answer in JSON, stating this side's version so that only
	// the encoding can fail it.
	jsonAnswer := jsonFrame(t, map[string]any{
		"src": guid.New(guid.KindServer), "dst": guid.New(guid.KindServer), "kind": "codec.hello",
		"body": map[string]any{"version": protocolVersion, "chosen": "json"},
	})
	cases := []struct {
		name   string
		answer func(hello wire.Message) []byte
	}{
		{"other version", func(h wire.Message) []byte {
			return reply(h, wire.KindHello, wire.Hello{Version: protocolVersion + 1})
		}},
		{"versionless hello", func(h wire.Message) []byte {
			return reply(h, wire.KindHello, map[string]string{"chosen": "binary"})
		}},
		{"not a hello", func(h wire.Message) []byte {
			return reply(h, wire.KindHeartbeat, map[string]string{"hb": "1"})
		}},
		{"JSON answer", func(wire.Message) []byte { return jsonAnswer }},
		{"never answers", func(wire.Message) []byte { return nil }},
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
// accept side closes it, and a dialer of another version is told ours —
// unless its hello is a protocol-3 JSON frame, which is malformed here and
// closed unanswered.
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
	addr := epB.(*tcpEndpoint).ln.Addr().String()
	src := guid.New(guid.KindServer)
	hb := wire.Message{Src: src, Dst: b, Kind: wire.KindHeartbeat}
	otherHello, err := wire.NewMessage(src, b, wire.KindHello, wire.Hello{Version: protocolVersion + 1})
	if err != nil {
		t.Fatal(err)
	}
	v3Hello := jsonFrame(t, map[string]any{
		"src": src, "dst": b, "kind": "codec.hello",
		"body": map[string]any{"version": 3, "codecs": []string{"binary", "json"}},
	})
	for _, tc := range []struct {
		name       string
		first      []byte
		wantAnswer bool
	}{
		{"first frame not a hello", frame(t, hb), false},
		{"hello of another version", frame(t, otherHello), true},
		{"protocol-3 JSON hello", v3Hello, false},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(tc.first); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, _ = conn.Write(frame(t, hb)) // must never be delivered
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		dec := wire.NewDecoder(conn)
		m, err := dec.Read()
		if tc.wantAnswer {
			var h wire.Hello
			if err != nil || m.Kind != wire.KindHello || m.DecodeBody(&h) != nil || h.Version != protocolVersion {
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

// TestMemoryNativePassthrough: the memory network has no wire, so a batch
// arrives pointer-identical.
func TestMemoryNativePassthrough(t *testing.T) {
	net, err := New(Config{})
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

	tcp, err := New(Config{Backend: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tcp.(*TCP); !ok {
		t.Fatalf("tcp backend built %T", tcp)
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

// TestTCPHelloMatchesGolden: the bytes a dialing endpoint opens a
// connection with, and the bytes an accept side answers with, are the
// committed hello goldens of internal/wire, byte for byte. Both endpoints
// take the goldens' GUIDs.
func TestTCPHelloMatchesGolden(t *testing.T) {
	defer leak.Check(t)()
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("..", "wire", "testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	dialGolden, answerGolden := read("hello_dial.bin"), read("hello_answer.bin")
	gid := func(n byte) guid.GUID {
		var g guid.GUID
		g[0], g[15] = byte(guid.KindServer), n
		return g
	}
	src, dst := gid(1), gid(2)

	// Dial side: a raw listener records the hello and answers with the
	// golden answer, which the dialer must accept.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- nil
			return
		}
		defer conn.Close()
		b := make([]byte, len(dialGolden))
		_, err = io.ReadFull(conn, b)
		if err == nil {
			_, err = conn.Write(answerGolden)
		}
		if err != nil {
			t.Error(err)
		}
		got <- b
		_, _ = io.Copy(io.Discard, conn) // park until the dialer gives the socket up
	}()
	tn := NewTCP(nil)
	defer tn.Close()
	tn.Directory().Register(dst, ln.Addr().String())
	epSrc, err := tn.Attach(src, func(wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := epSrc.Send(mkMsg(t, src, dst, nil)); err != nil {
		t.Fatalf("the golden answer was not accepted: %v", err)
	}
	if b := <-got; !bytes.Equal(b, dialGolden) {
		t.Fatalf("dialer's hello\n %x\nwant hello_dial.bin\n %x", b, dialGolden)
	}
	if err := epSrc.Close(); err != nil {
		t.Fatal(err)
	}

	// Accept side: a raw dialer sends the golden hello and reads the answer.
	epDst, err := tn.Attach(dst, func(wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", epDst.(*tcpEndpoint).ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(dialGolden); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	answer := make([]byte, len(answerGolden))
	if _, err := io.ReadFull(conn, answer); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(answer, answerGolden) {
		t.Fatalf("accept side's answer\n %x\nwant hello_answer.bin\n %x", answer, answerGolden)
	}
}
