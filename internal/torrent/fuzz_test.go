package torrent

import (
	"bytes"
	"testing"
)

// FuzzParseMessageBody hammers the frame-body decoder with arbitrary
// bytes: it must never panic, and anything it accepts must survive an
// encode/decode round trip unchanged.
func FuzzParseMessageBody(f *testing.F) {
	f.Add([]byte{})                        // keep-alive
	f.Add([]byte{MsgChoke})                // bare choke
	f.Add([]byte{MsgHave, 0, 0, 0, 7})     // have(7)
	f.Add([]byte{MsgBitfield, 0xFF, 0x80}) // bitfield
	f.Add(append([]byte{MsgRequest}, make([]byte, 12)...))
	f.Add(append([]byte{MsgPiece, 0, 0, 0, 1, 0, 0, 0x40, 0}, []byte("block data")...))
	f.Add([]byte{MsgCancel, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0x40, 0})
	f.Add([]byte{9, 1, 2, 3}) // unknown id

	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := ParseMessageBody(body)
		if err != nil {
			return
		}
		if len(body) > maxFrame {
			// Valid body, but too large to re-frame within the read limit.
			return
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("accepted message failed to encode: %v (%+v)", err, m)
		}
		m2, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("round trip failed to decode: %v (%+v)", err, m)
		}
		if m.ID != m2.ID || m.Index != m2.Index || m.Begin != m2.Begin ||
			m.Length != m2.Length || !bytes.Equal(m.Payload, m2.Payload) {
			t.Fatalf("round trip mismatch: %+v != %+v", m, m2)
		}
	})
}

// FuzzReadHandshake hammers the handshake parser: no panics, and any
// accepted handshake must re-encode to something it accepts again with
// the same identity.
func FuzzReadHandshake(f *testing.F) {
	valid := append([]byte{19}, []byte("BitTorrent protocol")...)
	valid = append(valid, make([]byte, 8)...)
	valid = append(valid, bytes.Repeat([]byte{'h'}, 20)...)
	valid = append(valid, bytes.Repeat([]byte{'p'}, 20)...)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{19})
	f.Add(append([]byte{19}, []byte("BitTorrent protocoX")...))
	f.Add(valid[:40])

	f.Fuzz(func(t *testing.T, data []byte) {
		infoHash, peerID, err := ReadHandshake(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteHandshake(&buf, infoHash, peerID); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		ih2, pid2, err := ReadHandshake(&buf)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if ih2 != infoHash || pid2 != peerID {
			t.Fatal("handshake identity changed across round trip")
		}
	})
}
