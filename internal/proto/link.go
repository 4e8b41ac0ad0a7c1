package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Link-layer framing: what the TCP transport puts on the wire.
//
// TCP alone loses in-flight frames on a connection reset, so every
// message travels in a link frame that carries a per-(sender, receiver)
// sequence number: the sender keeps frames in an unacked buffer until the
// receiver acknowledges them, retransmits the buffer on reconnection, and
// the receiver discards frames whose sequence number it has already
// delivered. Together these turn a connection reset into exactly-once,
// in-order delivery — a lost or duplicated Token frame becomes impossible
// while both endpoints live.
//
// Wire format:
//
//	uint32  payload length (big endian)
//	byte    magic: 0xD1 (data) or 0xA1 (cumulative ack)
//	uint64  sequence number (big endian)
//	...     message payload as AppendMessage (data frames only)
//
// The magic bytes are disjoint from the message version byte, so a bare
// message frame (AppendFrame) arriving on a link fails fast with a
// version error instead of mis-parsing.

// LinkType discriminates link frames.
type LinkType uint8

// Link frame types.
const (
	// LinkData carries one protocol message with its link sequence number.
	LinkData LinkType = 1
	// LinkAck is a cumulative acknowledgment: every data frame with
	// sequence ≤ Seq has been delivered.
	LinkAck LinkType = 2
)

const (
	linkMagicData byte = 0xD1
	linkMagicAck  byte = 0xA1
)

// AppendLinkData appends one sequenced data frame to dst and returns the
// extended slice. Several link frames appended to one buffer form a valid
// byte stream, which is how the TCP transport coalesces a burst of
// messages to one peer into a single write.
func AppendLinkData(dst []byte, seq uint64, m *Message) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, linkMagicData)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = AppendMessage(dst, m)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// WriteLinkAck writes one cumulative ack frame.
func WriteLinkAck(w io.Writer, seq uint64) error {
	var buf [4 + 9]byte
	binary.BigEndian.PutUint32(buf[:4], 9)
	buf[4] = linkMagicAck
	binary.BigEndian.PutUint64(buf[5:], seq)
	_, err := w.Write(buf[:])
	return err
}

// ReadLinkFrame reads one link frame. For LinkData the message is
// returned; for LinkAck it is nil. The frame scratch buffer is pooled.
func ReadLinkFrame(r io.Reader) (LinkType, uint64, *Message, error) {
	bp := getBuf()
	defer putBuf(bp)
	buf, err := readPayload(r, bp, 9)
	if err != nil {
		if errors.Is(err, ErrBadFrame) {
			return 0, 0, nil, fmt.Errorf("%w: short link frame", ErrBadFrame)
		}
		return 0, 0, nil, err
	}
	n := uint32(len(buf))
	seq := binary.BigEndian.Uint64(buf[1:9])
	switch buf[0] {
	case linkMagicData:
		m, err := DecodeMessage(buf[9:])
		if err != nil {
			return 0, 0, nil, err
		}
		return LinkData, seq, m, nil
	case linkMagicAck:
		if n != 9 {
			return 0, 0, nil, fmt.Errorf("%w: ack frame with %d payload bytes", ErrBadFrame, n-9)
		}
		return LinkAck, seq, nil, nil
	case wireVersion:
		return 0, 0, nil, fmt.Errorf("%w: peer speaks plain framing, not the reliable link layer", ErrBadVersion)
	default:
		return 0, 0, nil, fmt.Errorf("%w: unknown link magic 0x%02x", ErrBadVersion, buf[0])
	}
}
