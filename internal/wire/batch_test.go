package wire

import (
	"bytes"
	"errors"
	"testing"

	"sci/internal/guid"
)

// TestEventBatchRoundTrip sends one credit-bearing batch through each
// encoding: order, content and credit must survive both.
func TestEventBatchRoundTrip(t *testing.T) {
	src := guid.New(guid.KindServer)
	dst := guid.New(guid.KindEntity)
	events := testEvents(t, 3)
	m, err := NewNativeEventBatch(src, dst, events, &BatchCredit{Dropped: 7, QueueFree: 12})
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindEventBatch {
		t.Fatalf("kind = %s, want %s", m.Kind, KindEventBatch)
	}
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		var buf bytes.Buffer
		if err := NewEncoder(&buf, codec).Write(m); err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		got, err := NewDecoder(&buf).Read()
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		if got.Batch == nil {
			t.Fatalf("%s: decoded message carries no batch", codec)
		}
		eventsEquivalent(t, events, got.Batch.Events)
		if c, ok := got.BatchCreditInfo(); !ok || c.Dropped != 7 || c.QueueFree != 12 {
			t.Fatalf("%s: credit = %+v ok=%v", codec, c, ok)
		}
	}
}

func TestEventBatchRejectsEmpty(t *testing.T) {
	if _, err := NewNativeEventBatch(guid.New(guid.KindServer), guid.New(guid.KindEntity), nil, nil); err == nil {
		t.Fatal("want error for empty batch")
	}
}

// TestBatchCreditInfo: a credit-free batch reads as "no report", never as an
// all-clear; a standalone ack carries its report in the body.
func TestBatchCreditInfo(t *testing.T) {
	src, dst := guid.New(guid.KindServer), guid.New(guid.KindEntity)
	plain, err := NewNativeEventBatch(src, dst, testEvents(t, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.BatchCreditInfo(); ok {
		t.Fatal("credit-free batch invented a credit report")
	}
	ack, err := NewEventBatchAck(dst, src, BatchCredit{Events: 2, Dropped: 9})
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := ack.BatchCreditInfo(); !ok || c.Dropped != 9 || c.Events != 2 {
		t.Fatalf("ack credit = %+v ok=%v", c, ok)
	}
	if _, ok := mkMsg(t, KindQuery, map[string]any{"q": 1}).BatchCreditInfo(); ok {
		t.Fatal("a query carries no credit")
	}
}

// TestRetiredKindIDRejected: kind id 10 once named the single-event frame.
// The slot is never reassigned, and a frame carrying it is malformed.
func TestRetiredKindIDRejected(t *testing.T) {
	src, dst := guid.New(guid.KindServer), guid.New(guid.KindEntity)
	var buf bytes.Buffer
	if err := NewEncoder(&buf, CodecBinary).Write(Message{Src: src, Dst: dst, Kind: KindHeartbeat}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	if frame[4] != magicByte || kindTable[frame[6]] != KindHeartbeat {
		t.Fatalf("unexpected frame header % x", frame[:8])
	}
	frame[6] = 10
	if _, err := NewDecoder(bytes.NewReader(frame)).Read(); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("kind id 10: want ErrBadMessage, got %v", err)
	}
	if _, ok := kindIDs[""]; ok {
		t.Fatal("the retired slot must not be encodable")
	}
}
