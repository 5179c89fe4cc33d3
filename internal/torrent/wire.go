package torrent

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
)

// Wire message IDs (BEP 3).
const (
	// MsgKeepAlive is the zero-length frame; it has no ID byte.
	MsgKeepAlive     = -1
	MsgChoke         = 0
	MsgUnchoke       = 1
	MsgInterested    = 2
	MsgNotInterested = 3
	MsgHave          = 4
	MsgBitfield      = 5
	MsgRequest       = 6
	MsgPiece         = 7
	MsgCancel        = 8
)

// protocolString is the BitTorrent handshake magic.
const protocolString = "BitTorrent protocol"

// handshakeLen is the length of a handshake: the magic's length byte,
// the magic, 8 reserved bytes, the info hash and the peer ID.
const handshakeLen = 1 + len(protocolString) + 8 + 20 + 20

// maxFrame bounds incoming frames: one block plus headers is the largest
// legitimate message.
const maxFrame = BlockSize + 1024

// Message is one decoded wire message.
type Message struct {
	ID      int    // a Msg* constant
	Index   uint32 // have, request, piece, cancel
	Begin   uint32 // request, piece, cancel
	Length  uint32 // request, cancel
	Payload []byte // piece data or raw bitfield
}

// kindNames names the message kinds: the wire IDs in order, then the
// keep-alive.
var kindNames = [...]string{
	"choke", "unchoke", "interested", "uninterested", "have",
	"bitfield", "request", "piece", "cancel", "keepalive",
}

// kind indexes kindNames, or is -1 for an ID the codec does not know.
func (m *Message) kind() int {
	switch {
	case m.ID == MsgKeepAlive:
		return len(kindNames) - 1
	case m.ID >= 0 && m.ID < len(kindNames)-1:
		return m.ID
	}
	return -1
}

// Kind renders the message type for dispatch patterns and diagnostics.
func (m *Message) Kind() string {
	if k := m.kind(); k >= 0 {
		return kindNames[k]
	}
	return fmt.Sprintf("unknown(%d)", m.ID)
}

// Counts tallies messages by Kind. The zero value is ready, and every
// method is safe for concurrent use.
type Counts [len(kindNames)]atomic.Uint64

// Add counts m under its kind.
func (c *Counts) Add(m *Message) {
	if k := m.kind(); k >= 0 {
		c[k].Add(1)
	}
}

// Reset zeroes every count.
func (c *Counts) Reset() {
	for i := range c {
		c[i].Store(0)
	}
}

// Snapshot returns the counts keyed by Kind, every kind present.
func (c *Counts) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(kindNames))
	for i, k := range kindNames {
		out[k] = c[i].Load()
	}
	return out
}

// WriteHandshake sends the 68-byte BitTorrent handshake.
func WriteHandshake(w io.Writer, infoHash, peerID [20]byte) error {
	buf := make([]byte, 0, handshakeLen)
	buf = append(buf, byte(len(protocolString)))
	buf = append(buf, protocolString...)
	buf = append(buf, make([]byte, 8)...) // reserved
	buf = append(buf, infoHash[:]...)
	buf = append(buf, peerID[:]...)
	_, err := w.Write(buf)
	return err
}

// ReadHandshake reads and validates the peer's handshake. The caller
// compares the info hash with its own.
func ReadHandshake(r io.Reader) (infoHash, peerID [20]byte, err error) {
	var buf [handshakeLen]byte
	if _, err = io.ReadFull(r, buf[:]); err != nil {
		return
	}
	if int(buf[0]) != len(protocolString) || string(buf[1:1+len(protocolString)]) != protocolString {
		err = errors.New("torrent: bad handshake protocol string")
		return
	}
	copy(infoHash[:], buf[handshakeLen-40:])
	copy(peerID[:], buf[handshakeLen-20:])
	return
}

// WriteMessage frames and sends one message, encoding it straight into
// the one buffer it writes.
func WriteMessage(w io.Writer, m *Message) error {
	var n int // body length, ID byte included
	switch m.ID {
	case MsgKeepAlive:
	case MsgChoke, MsgUnchoke, MsgInterested, MsgNotInterested:
		n = 1
	case MsgHave:
		n = 5
	case MsgBitfield:
		n = 1 + len(m.Payload)
	case MsgRequest, MsgCancel:
		n = 13
	case MsgPiece:
		n = 9 + len(m.Payload)
	default:
		return fmt.Errorf("torrent: cannot encode message id %d", m.ID)
	}
	be := binary.BigEndian
	frame := be.AppendUint32(make([]byte, 0, 4+n), uint32(n))
	if n > 0 {
		frame = append(frame, byte(m.ID))
	}
	switch m.ID {
	case MsgHave:
		frame = be.AppendUint32(frame, m.Index)
	case MsgBitfield:
		frame = append(frame, m.Payload...)
	case MsgRequest, MsgCancel:
		frame = be.AppendUint32(be.AppendUint32(be.AppendUint32(frame, m.Index), m.Begin), m.Length)
	case MsgPiece:
		frame = append(be.AppendUint32(be.AppendUint32(frame, m.Index), m.Begin), m.Payload...)
	}
	_, err := w.Write(frame)
	return err
}

// ReadFrame reads one length-prefixed frame and returns its body,
// everything after the length prefix: empty for a keep-alive, and never
// longer than the largest legitimate message.
func ReadFrame(r io.Reader) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	length := binary.BigEndian.Uint32(lenBuf[:])
	if length == 0 {
		return nil, nil
	}
	if length > maxFrame {
		return nil, fmt.Errorf("torrent: frame of %d bytes exceeds limit", length)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// ReadMessage reads and decodes one framed message.
func ReadMessage(r io.Reader) (*Message, error) {
	body, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	return ParseMessageBody(body)
}

// ParseMessageBody decodes a frame body into a Message. A body that is
// malformed for its ID, or whose ID is unknown, is an error.
func ParseMessageBody(body []byte) (*Message, error) {
	if len(body) == 0 {
		return &Message{ID: MsgKeepAlive}, nil
	}
	m := &Message{ID: int(body[0])}
	body = body[1:]
	switch m.ID {
	case MsgChoke, MsgUnchoke, MsgInterested, MsgNotInterested:
		// no payload
	case MsgHave:
		if len(body) != 4 {
			return nil, errors.New("torrent: malformed have")
		}
		m.Index = binary.BigEndian.Uint32(body)
	case MsgBitfield:
		m.Payload = body
	case MsgRequest, MsgCancel:
		if len(body) != 12 {
			return nil, errors.New("torrent: malformed request/cancel")
		}
		m.Index = binary.BigEndian.Uint32(body[0:4])
		m.Begin = binary.BigEndian.Uint32(body[4:8])
		m.Length = binary.BigEndian.Uint32(body[8:12])
	case MsgPiece:
		if len(body) < 8 {
			return nil, errors.New("torrent: malformed piece")
		}
		m.Index = binary.BigEndian.Uint32(body[0:4])
		m.Begin = binary.BigEndian.Uint32(body[4:8])
		m.Payload = body[8:]
	default:
		return nil, fmt.Errorf("torrent: unknown message id %d", m.ID)
	}
	return m, nil
}
