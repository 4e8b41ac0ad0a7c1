package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"hierlock/internal/modes"
)

// Wire format: every message is a length-prefixed frame
//
//	uint32  payload length (big endian)
//	payload as encoded by AppendMessage
//
// The payload layout is fixed-width fields in network byte order followed
// by the request queue. The format is versioned by a leading magic byte so
// incompatible peers fail fast instead of mis-parsing.
//
// Version history (what each version added to the one before):
//
//	1 — original layout (no trace context).
//	2 — a causal trace ID (uint32 origin node + uint64 origin sequence)
//	    in the fixed header and in every encoded Request.
//	3 — the per-lock recovery epoch (uint32) in the fixed header, and the
//	    recovery/liveness message kinds (probe, claim, recovered,
//	    heartbeat).
//	4 — a length-prefixed endpoint address (uint16 length + raw bytes)
//	    after the epoch, and the membership kinds (join, join_ack, leave,
//	    leave_ack).
//
// Version 4 is the only one any release ever emitted, and the only one
// spoken: encoder and decoder know one layout, and a frame with any other
// version byte is rejected with ErrBadVersion before a field is read. The
// next layout change bumps the byte; whether the decoder then keeps the
// old layout for a rolling upgrade is that change's decision.

const (
	wireVersion byte = 4

	// MaxAddrLen bounds the endpoint address accepted from the wire; any
	// real host:port is far below this.
	MaxAddrLen = 1 << 10

	// MaxQueueLen bounds the queue length accepted from the wire; a token
	// transfer can carry at most one outstanding request per node, so any
	// real deployment is far below this.
	MaxQueueLen = 1 << 20

	// MaxFrameSize bounds the total frame size accepted from the wire.
	MaxFrameSize = 32 << 20
)

// Encoding errors.
var (
	ErrBadFrame   = errors.New("proto: malformed frame")
	ErrBadVersion = errors.New("proto: wire version mismatch")
	ErrTooLarge   = errors.New("proto: frame exceeds size limit")
)

// AppendMessage appends the binary encoding of m to dst and returns the
// extended slice. The encoding is deterministic.
func AppendMessage(dst []byte, m *Message) []byte {
	dst = append(dst, wireVersion, byte(m.Kind))
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.Lock))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.From))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.To))
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.TS))
	dst = binary.BigEndian.AppendUint64(dst, m.Seq)
	dst = append(dst, byte(m.Mode), byte(m.Owned), byte(m.Frozen))
	dst = appendTrace(dst, m.Trace)
	dst = binary.BigEndian.AppendUint32(dst, m.Epoch)
	if len(m.Addr) > MaxAddrLen {
		// A programming error, not a wire condition: no caller forms
		// kilobyte addresses. Failing loudly beats emitting a frame every
		// peer will reject.
		panic("proto: message address exceeds MaxAddrLen")
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Addr)))
	dst = append(dst, m.Addr...)
	dst = appendRequest(dst, m.Req)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Queue)))
	for _, r := range m.Queue {
		dst = appendRequest(dst, r)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Vec)))
	for _, v := range m.Vec {
		dst = binary.BigEndian.AppendUint64(dst, v)
	}
	return dst
}

func appendTrace(dst []byte, t TraceID) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(t.Node))
	return binary.BigEndian.AppendUint64(dst, t.Seq)
}

func appendRequest(dst []byte, r Request) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.Origin))
	dst = append(dst, byte(r.Mode), r.Priority)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.TS))
	return appendTrace(dst, r.Trace)
}

const (
	traceLen = 4 + 8 // origin node, origin sequence
	epochLen = 4     // recovery epoch

	traceOff  = 2 + 8 + 4 + 4 + 8 + 8 + 3 // version..frozen
	epochOff  = traceOff + traceLen       // version..frozen, trace
	headerLen = epochOff + epochLen       // version..frozen, trace, epoch

	reqTraceOff = 4 + 1 + 1 + 8          // origin, mode, priority, ts
	requestLen  = reqTraceOff + traceLen // origin..ts, trace
)

// Message pooling. The decoded Message used to be the last allocation
// on the inbound wire hot path (1 alloc/frame). Messages now come from a
// pool: DecodeMessage draws from it, and consumers that can prove the
// pointer is dead (the TCP transport, after its serialized delivery
// callback returns) hand the struct back with PutMessage. Callers that
// never recycle simply fall back to ordinary allocation via the pool's
// New — recycling is an optimization, not an obligation.
var msgPool = sync.Pool{New: func() any { return new(Message) }}

// GetMessage returns a zeroed Message from the pool.
func GetMessage() *Message { return msgPool.Get().(*Message) }

// PutMessage recycles a Message the caller owns exclusively. The struct
// is zeroed wholesale: in particular the Queue and Vec slice headers are
// dropped, never reused, because protocol engines may retain a decoded
// queue's backing array past the message's lifetime (queue merging
// aliases it). Only the fixed-size struct itself is recycled.
func PutMessage(m *Message) {
	if m == nil {
		return
	}
	*m = Message{}
	msgPool.Put(m)
}

// DecodeMessage parses one message from buf (the full payload of a frame).
// Only the current wire version is accepted; anything else fails with
// ErrBadVersion. The returned Message comes from the message pool;
// callers that can bound its lifetime may return it with PutMessage for
// an allocation-free steady state.
func DecodeMessage(buf []byte) (*Message, error) {
	m := GetMessage()
	if err := decodeMessage(m, buf); err != nil {
		PutMessage(m)
		return nil, err
	}
	return m, nil
}

// decodeMessage parses one payload into m, which must be zeroed.
func decodeMessage(m *Message, buf []byte) error {
	if len(buf) < 1 {
		return fmt.Errorf("%w: empty payload", ErrBadFrame)
	}
	if buf[0] != wireVersion {
		return fmt.Errorf("%w: got %d, want %d", ErrBadVersion, buf[0], wireVersion)
	}
	if len(buf) < headerLen+2+requestLen+4 {
		return fmt.Errorf("%w: short payload (%d bytes)", ErrBadFrame, len(buf))
	}
	m.Kind = Kind(buf[1])
	if m.Kind == KindInvalid || m.Kind > KindLeaveAck {
		return fmt.Errorf("%w: unknown kind %d", ErrBadFrame, buf[1])
	}
	m.Lock = LockID(binary.BigEndian.Uint64(buf[2:]))
	m.From = NodeID(int32(binary.BigEndian.Uint32(buf[10:])))
	m.To = NodeID(int32(binary.BigEndian.Uint32(buf[14:])))
	m.TS = Timestamp(binary.BigEndian.Uint64(buf[18:]))
	m.Seq = binary.BigEndian.Uint64(buf[26:])
	m.Mode = modes.Mode(buf[34])
	m.Owned = modes.Mode(buf[35])
	m.Frozen = modes.Set(buf[36])
	if !m.Mode.Valid() || !m.Owned.Valid() {
		return fmt.Errorf("%w: invalid mode byte", ErrBadFrame)
	}
	m.Trace = decodeTrace(buf[traceOff:])
	m.Epoch = binary.BigEndian.Uint32(buf[epochOff:])
	alen := int(binary.BigEndian.Uint16(buf[headerLen:]))
	rest := buf[headerLen+2:]
	if alen > MaxAddrLen {
		return fmt.Errorf("%w: address of %d bytes", ErrTooLarge, alen)
	}
	if len(rest) < alen {
		return fmt.Errorf("%w: truncated address", ErrBadFrame)
	}
	if alen > 0 {
		m.Addr = string(rest[:alen])
	}
	var err error
	m.Req, rest, err = decodeRequest(rest[alen:])
	if err != nil {
		return err
	}
	if len(rest) < 4 {
		return fmt.Errorf("%w: missing queue length", ErrBadFrame)
	}
	n := binary.BigEndian.Uint32(rest)
	rest = rest[4:]
	if n > MaxQueueLen {
		return fmt.Errorf("%w: queue length %d", ErrTooLarge, n)
	}
	if n > 0 {
		m.Queue = make([]Request, 0, n)
		for i := uint32(0); i < n; i++ {
			var r Request
			r, rest, err = decodeRequest(rest)
			if err != nil {
				return err
			}
			m.Queue = append(m.Queue, r)
		}
	}
	if len(rest) < 4 {
		return fmt.Errorf("%w: missing vector length", ErrBadFrame)
	}
	vn := binary.BigEndian.Uint32(rest)
	rest = rest[4:]
	if vn > MaxQueueLen {
		return fmt.Errorf("%w: vector length %d", ErrTooLarge, vn)
	}
	if vn > 0 {
		if uint64(len(rest)) < uint64(vn)*8 {
			return fmt.Errorf("%w: truncated vector", ErrBadFrame)
		}
		m.Vec = make([]uint64, vn)
		for i := range m.Vec {
			m.Vec[i] = binary.BigEndian.Uint64(rest)
			rest = rest[8:]
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(rest))
	}
	return nil
}

func decodeTrace(buf []byte) TraceID {
	return TraceID{
		Node: NodeID(int32(binary.BigEndian.Uint32(buf))),
		Seq:  binary.BigEndian.Uint64(buf[4:]),
	}
}

func decodeRequest(buf []byte) (Request, []byte, error) {
	if len(buf) < requestLen {
		return Request{}, nil, fmt.Errorf("%w: short request", ErrBadFrame)
	}
	r := Request{
		Origin:   NodeID(int32(binary.BigEndian.Uint32(buf))),
		Mode:     modes.Mode(buf[4]),
		Priority: buf[5],
		TS:       Timestamp(binary.BigEndian.Uint64(buf[6:])),
		Trace:    decodeTrace(buf[reqTraceOff:]),
	}
	if !r.Mode.Valid() {
		return Request{}, nil, fmt.Errorf("%w: invalid request mode", ErrBadFrame)
	}
	return r, buf[requestLen:], nil
}

// Buffer pooling. Every frame read needs a scratch byte slice whose
// lifetime ends inside the call; recycling them through a sync.Pool makes
// the steady-state read path allocate nothing beyond the decoded Message
// itself. Oversized buffers (a rare
// giant token transfer) are dropped rather than pooled so one outlier
// cannot pin memory forever.
const maxPooledBuf = 64 << 10

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if cap(*bp) > maxPooledBuf {
		return
	}
	*bp = (*bp)[:0]
	bufPool.Put(bp)
}

// AppendFrame appends one length-prefixed wire frame for m to dst and
// returns the extended slice: the bare message framing, without a link
// sequence number. The TCP transport does not speak it (it writes link
// frames, link.go, and ReadLinkFrame refuses this one); its remaining
// callers are the load harness's codec probes, which time AppendFrame +
// DecodeMessage.
func AppendFrame(dst []byte, m *Message) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = AppendMessage(dst, m)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// readPayload reads one length-prefixed payload into the pooled scratch
// buffer bp, growing it as needed. The returned slice aliases *bp.
func readPayload(r io.Reader, bp *[]byte, min uint32) ([]byte, error) {
	// The length prefix is read through the pooled buffer as well: a
	// stack array would escape to the heap via the io.Reader interface
	// and cost an allocation per frame.
	if cap(*bp) < 4 {
		*bp = make([]byte, 4, 1024)
	}
	lenBuf := (*bp)[:4]
	if _, err := io.ReadFull(r, lenBuf); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf)
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: frame of %d bytes", ErrTooLarge, n)
	}
	if n < min {
		return nil, fmt.Errorf("%w: short frame (%d bytes)", ErrBadFrame, n)
	}
	if uint32(cap(*bp)) < n {
		*bp = make([]byte, n)
	}
	buf := (*bp)[:n]
	*bp = buf
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
