package torrent

import (
	"bytes"
	"testing"
)

func TestWireRoundTrip(t *testing.T) {
	msgs := []*Message{
		{ID: MsgKeepAlive},
		{ID: MsgChoke},
		{ID: MsgUnchoke},
		{ID: MsgInterested},
		{ID: MsgNotInterested},
		{ID: MsgHave, Index: 42},
		{ID: MsgBitfield, Payload: []byte{0xA5, 0x0F}},
		{ID: MsgRequest, Index: 1, Begin: 16384, Length: 16384},
		{ID: MsgCancel, Index: 2, Begin: 0, Length: 1024},
		{ID: MsgPiece, Index: 3, Begin: 32768, Payload: []byte("block data")},
	}
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("write %s: %v", m.Kind(), err)
		}
	}
	for _, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("read %s: %v", want.Kind(), err)
		}
		if got.ID != want.ID || got.Index != want.Index || got.Begin != want.Begin ||
			got.Length != want.Length || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("round trip %s: got %+v want %+v", want.Kind(), got, want)
		}
	}
}

func TestHandshakeRoundTrip(t *testing.T) {
	var infoHash, peerID [20]byte
	copy(infoHash[:], "aaaaaaaaaaaaaaaaaaaa")
	copy(peerID[:], "bbbbbbbbbbbbbbbbbbbb")
	var buf bytes.Buffer
	if err := WriteHandshake(&buf, infoHash, peerID); err != nil {
		t.Fatal(err)
	}
	gotHash, gotID, err := ReadHandshake(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotHash != infoHash || gotID != peerID {
		t.Error("handshake round trip mismatch")
	}
}

func TestMalformedWireMessages(t *testing.T) {
	bad := [][]byte{
		{0, 0, 0, 1, 4},                // have without index
		{0, 0, 0, 2, 6, 0},             // short request
		{0, 0, 0, 3, 7, 0, 0},          // short piece
		{0, 0, 0, 1, 99},               // unknown id
		{0xFF, 0xFF, 0xFF, 0xFF, 0, 0}, // oversized frame
	}
	for _, in := range bad {
		if _, err := ReadMessage(bytes.NewReader(in)); err == nil {
			t.Errorf("ReadMessage(%v) should fail", in)
		}
	}
}

// TestCountsByKind: every kind is counted under its Kind name, and an
// ID the codec does not know is not counted at all.
func TestCountsByKind(t *testing.T) {
	var c Counts
	for id := MsgKeepAlive; id <= MsgCancel; id++ {
		c.Add(&Message{ID: id})
	}
	c.Add(&Message{ID: 99})
	got := c.Snapshot()
	if len(got) != 10 {
		t.Fatalf("snapshot has %d kinds, want 10: %v", len(got), got)
	}
	for kind, n := range got {
		if n != 1 {
			t.Errorf("%s counted %d times, want 1", kind, n)
		}
	}
	c.Reset()
	if got := c.Snapshot()["piece"]; got != 0 {
		t.Errorf("piece count after Reset = %d", got)
	}
}
