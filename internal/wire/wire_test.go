package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"testing/quick"

	"sci/internal/guid"
)

func mkMsg(t *testing.T, kind Kind, body any) Message {
	t.Helper()
	m, err := NewMessage(guid.New(guid.KindServer), guid.New(guid.KindEntity), kind, body)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMessageAndDecodeBody(t *testing.T) {
	type payload struct {
		Name string `json:"name"`
		N    int    `json:"n"`
	}
	m := mkMsg(t, KindQuery, payload{Name: "bob", N: 7})
	var out payload
	if err := m.DecodeBody(&out); err != nil {
		t.Fatal(err)
	}
	if out.Name != "bob" || out.N != 7 {
		t.Fatalf("body round trip: %+v", out)
	}
}

func TestNewMessageNilBody(t *testing.T) {
	m := mkMsg(t, KindHeartbeat, nil)
	if len(m.Body) != 0 {
		t.Fatal("nil body should produce empty Body")
	}
	var out map[string]any
	if err := m.DecodeBody(&out); err == nil {
		t.Fatal("DecodeBody on empty body should error")
	}
}

func TestNewMessageUnmarshalableBody(t *testing.T) {
	_, err := NewMessage(guid.New(guid.KindServer), guid.Nil, KindQuery, make(chan int))
	if err == nil {
		t.Fatal("channel body accepted")
	}
}

func TestReply(t *testing.T) {
	m := mkMsg(t, KindQuery, map[string]string{"q": "x"})
	m.Corr = guid.New(guid.KindQuery)
	r, err := m.Reply(KindQueryResult, map[string]string{"a": "y"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Src != m.Dst || r.Dst != m.Src {
		t.Fatal("reply did not swap endpoints")
	}
	if r.Corr != m.Corr {
		t.Fatal("reply lost correlation")
	}
	if r.Kind != KindQueryResult {
		t.Fatal("reply kind wrong")
	}
}

func TestValidate(t *testing.T) {
	m := mkMsg(t, KindHeartbeat, nil)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := m
	bad.Kind = ""
	if bad.Validate() == nil {
		t.Fatal("empty kind accepted")
	}
	bad = m
	bad.Src = guid.Nil
	if bad.Validate() == nil {
		t.Fatal("nil src accepted")
	}
	if m.String() == "" {
		t.Fatal("empty String")
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewEncoder(&buf, CodecJSON)
	msgs := []Message{
		mkMsg(t, KindRegister, map[string]string{"name": "ce1"}),
		mkMsg(t, KindHeartbeat, nil),
		mkMsg(t, KindQuery, map[string]any{"what": "printer", "mode": "subscribe"}),
	}
	for _, m := range msgs {
		if err := w.Write(m); err != nil {
			t.Fatal(err)
		}
	}
	r := NewDecoder(&buf)
	for i, want := range msgs {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.Src != want.Src || got.Dst != want.Dst {
			t.Fatalf("read %d mismatch: %v vs %v", i, got, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("expected io.EOF at stream end, got %v", err)
	}
}

func TestWriterRejectsInvalid(t *testing.T) {
	w := NewEncoder(io.Discard, CodecJSON)
	if err := w.Write(Message{}); err == nil {
		t.Fatal("invalid message written")
	}
}

func TestReaderFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], MaxFrame+1)
	buf.Write(lenBuf[:])
	r := NewDecoder(&buf)
	if _, err := r.Read(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestReaderTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], 100)
	buf.Write(lenBuf[:])
	buf.WriteString("short")
	r := NewDecoder(&buf)
	if _, err := r.Read(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("truncated frame: got %v, want unexpected-EOF error", err)
	}
}

func TestReaderGarbageJSON(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("this is not json")
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(payload)))
	buf.Write(lenBuf[:])
	buf.Write(payload)
	r := NewDecoder(&buf)
	if _, err := r.Read(); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("want ErrBadMessage, got %v", err)
	}
}

func TestReaderInvalidEnvelope(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte(`{"kind":""}`)
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(payload)))
	buf.Write(lenBuf[:])
	buf.Write(payload)
	r := NewDecoder(&buf)
	if _, err := r.Read(); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("want ErrBadMessage, got %v", err)
	}
}

func TestOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		r := NewDecoder(conn)
		w := NewEncoder(conn, CodecJSON)
		for {
			m, err := r.Read()
			if err != nil {
				if errors.Is(err, io.EOF) {
					done <- nil
				} else {
					done <- err
				}
				return
			}
			reply, err := m.Reply(KindQueryResult, map[string]string{"echo": string(m.Kind)})
			if err != nil {
				done <- err
				return
			}
			if err := w.Write(reply); err != nil {
				done <- err
				return
			}
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	w := NewEncoder(conn, CodecJSON)
	r := NewDecoder(conn)
	for i := 0; i < 10; i++ {
		m := mkMsg(t, KindQuery, map[string]int{"i": i})
		m.Corr = guid.New(guid.KindQuery)
		if err := w.Write(m); err != nil {
			t.Fatal(err)
		}
		got, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if got.Corr != m.Corr {
			t.Fatal("correlation lost over TCP")
		}
		var body map[string]string
		if err := got.DecodeBody(&body); err != nil {
			t.Fatal(err)
		}
		if body["echo"] != string(KindQuery) {
			t.Fatalf("echo = %q", body["echo"])
		}
	}
	conn.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// Property: write-then-read is the identity for arbitrary string bodies.
func TestPropRoundTripArbitraryBodies(t *testing.T) {
	f := func(key, val string, ttl uint8) bool {
		// JSON strings must be valid UTF-8; quick may generate invalid
		// sequences, so sanitise.
		key = strings.ToValidUTF8(key, "?")
		val = strings.ToValidUTF8(val, "?")
		m, err := NewMessage(guid.New(guid.KindServer), guid.New(guid.KindEntity),
			KindServiceCall, map[string]string{key: val})
		if err != nil {
			return false
		}
		m.TTL = int(ttl)
		var buf bytes.Buffer
		if err := NewEncoder(&buf, CodecJSON).Write(m); err != nil {
			return false
		}
		got, err := NewDecoder(&buf).Read()
		if err != nil {
			return false
		}
		var body map[string]string
		if err := got.DecodeBody(&body); err != nil {
			return false
		}
		return got.Src == m.Src && got.Dst == m.Dst && got.TTL == m.TTL && body[key] == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteRead(b *testing.B) {
	m, err := NewMessage(guid.New(guid.KindServer), guid.New(guid.KindEntity),
		KindServiceCall, map[string]string{"door": "L10.01"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := NewEncoder(&buf, CodecJSON).Write(m); err != nil {
			b.Fatal(err)
		}
		if _, err := NewDecoder(&buf).Read(); err != nil {
			b.Fatal(err)
		}
	}
}
