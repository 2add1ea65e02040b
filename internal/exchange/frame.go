package exchange

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// The wire format is a single length-prefixed frame shape shared by the
// data plane (boundary m/z payloads) and the coordinator/worker control
// plane (internal/shard):
//
//	| length u32 LE | kind u8 | seq u32 LE | payload (length-5 bytes) |
//
// length counts everything after itself (kind + seq + payload), so an
// empty frame has length 5. Data-plane payloads are raw little-endian
// float64 blocks whose layout both ends fixed at handshake via a
// Manifest — no per-edge indices on the wire. Control payloads are JSON
// (internal/shard defines the messages). seq carries the iteration
// round on data frames (a cheap desynchronization tripwire) and is 0 on
// control frames.
//
// Decoding is defensive: a frame that is truncated, oversized, or
// undersized produces an error, never a panic — FuzzExchangeFrameDecode
// pins this.

// Frame kinds. Data-plane kinds are produced by Messaged; control kinds
// by the coordinator/worker protocol in internal/shard.
const (
	// FrameM carries boundary m-contributions (sync point 1).
	FrameM byte = 1
	// FrameZ carries owner-combined boundary z blocks (sync point 2).
	FrameZ byte = 2
	// Kinds 3 and 4 are retired (they were the delta-encoded forms of
	// kinds 1 and 2) and must not be reused: a peer that still sends
	// one is refused as desynchronized, not misread.

	// FrameCfg opens a coordinator session: JSON worker configuration.
	FrameCfg byte = 10
	// FramePeer opens a worker-to-worker mesh connection.
	FramePeer byte = 11
	// FrameReady acknowledges FrameCfg: JSON graph shape + manifest digest.
	FrameReady byte = 12
	// FrameState pushes full ADMM state down: raw Rho|Alpha|X|U|N|Z.
	FrameState byte = 13
	// FrameIter commands a block of iterations: JSON {iters, zprev, edit}.
	FrameIter byte = 14
	// Kind 15 is retired (it was Params, a Rho|U push) and must not be
	// reused: a worker refuses it. Kind 16 is retired too (it was Done,
	// a block's JSON statistics ahead of its Up): a coordinator refuses
	// it as an unexpected frame.

	// FrameUp answers FrameIter, one per worker per block: the block's
	// statistics as raw int64 words, then raw owned X|U|Z state (plus a
	// zPrev capture when the block requested one); N is recomputed
	// coordinator-side from the n = z - u identity.
	FrameUp byte = 17
	// FrameBye ends a session.
	FrameBye byte = 18
	// FrameErr reports a worker-side failure: UTF-8 message.
	FrameErr byte = 19
	// FramePing probes a worker's liveness outside any session; the
	// worker answers FramePong and closes the connection.
	FramePing byte = 20
	// FramePong answers FramePing: JSON {active, sessions}.
	FramePong byte = 21
	// Kinds 22 and 23 are retired (they were the warm-cache CacheProbe
	// opener and its CacheAck; FrameCfg and FrameReady carry the cache
	// handshake now) and must not be reused: a worker refuses either as
	// an unexpected frame.

	// FrameTick is a worker's heartbeat while its coordinator waits on
	// it (from Cfg to Ready, an install of State, a block): raw int64
	// mesh peer it waits on (-1 while it computes) and nanoseconds waited.
	FrameTick byte = 24
)

// frameOverhead is the non-payload bytes of one frame on the wire.
const frameOverhead = 4 + 1 + 4

// MaxFrameLen bounds a frame's length field. State frames carry whole
// edge-state arrays, so the bound is generous; anything larger is
// treated as stream corruption rather than allocated.
const MaxFrameLen = 1 << 28

// Frame is one decoded frame. Payload aliases the reader's scratch
// buffer and is valid until the next ReadFrame on the same buffer.
type Frame struct {
	Kind    byte
	Seq     uint32
	Payload []byte
}

// BeginFrame appends a frame header, its length left unset, to buf. The
// caller appends the payload and hands the frame to FinishFrame.
// Together they encode a frame in place, in a buffer the caller reuses,
// without copying the payload.
func BeginFrame(buf []byte, kind byte, seq uint32) []byte {
	buf = append(buf, 0, 0, 0, 0, kind)
	return binary.LittleEndian.AppendUint32(buf, seq)
}

// FinishFrame sets the length of the frame that BeginFrame started at
// buf[0] and writes the whole frame to w with one Write. A frame past
// MaxFrameLen is an error and is not written: every reader refuses it.
func FinishFrame(w io.Writer, buf []byte) error {
	if len(buf)-4 > MaxFrameLen {
		return fmt.Errorf("exchange: frame payload %d bytes exceeds limit", len(buf)-frameOverhead)
	}
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
	_, err := w.Write(buf)
	return err
}

// AppendFrame appends one encoded frame to dst and returns the extended
// slice.
func AppendFrame(dst []byte, kind byte, seq uint32, payload []byte) []byte {
	start := len(dst)
	dst = append(BeginFrame(dst, kind, seq), payload...)
	binary.LittleEndian.PutUint32(dst[start:], uint32(5+len(payload)))
	return dst
}

// WriteFrame encodes and writes one frame whose payload the caller
// already holds; a sender that builds its payload fresh for each frame
// builds it in place with BeginFrame and FinishFrame instead.
func WriteFrame(w io.Writer, kind byte, seq uint32, payload []byte) error {
	buf := BeginFrame(make([]byte, 0, frameOverhead+len(payload)), kind, seq)
	return FinishFrame(w, append(buf, payload...))
}

// frameReadStep is the most ReadFrame allocates for a frame its buffer
// cannot hold before any of that frame's bytes have arrived.
const frameReadStep = 64 << 10

// ReadFrame reads one frame from r, reusing buf for the payload when it
// is large enough. It returns the frame and the (possibly grown) buffer
// for the caller's next read. Truncated streams, lengths below the
// 5-byte header, and lengths beyond MaxFrameLen are errors; ReadFrame
// never panics on malformed input.
//
// A length is only a peer's claim, so a buffer too small for it grows
// as bytes arrive: each step reads at most as many bytes as the buffer
// already holds (frameReadStep at first), so a peer that declares a
// large frame and stalls or hangs up pins about twice what it sent, not
// what it declared. A buffer that is already large enough — every
// steady-state data-plane read — is filled in one read.
func ReadFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, buf, err
	}
	length := int(binary.LittleEndian.Uint32(hdr[:]))
	if length < 5 {
		return Frame{}, buf, fmt.Errorf("exchange: frame length %d below header size", length)
	}
	if length > MaxFrameLen {
		return Frame{}, buf, fmt.Errorf("exchange: frame length %d exceeds limit %d", length, MaxFrameLen)
	}
	buf = buf[:0]
	for len(buf) < length {
		step := length - len(buf)
		if cap(buf) < length {
			step = min(step, max(len(buf), frameReadStep))
		}
		buf = slices.Grow(buf, step)
		n, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+n]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, buf, fmt.Errorf("exchange: truncated frame (want %d payload bytes): %w", length, err)
		}
	}
	return Frame{
		Kind:    buf[0],
		Seq:     binary.LittleEndian.Uint32(buf[1:5]),
		Payload: buf[5:],
	}, buf, nil
}

// AppendF64 appends v's little-endian IEEE-754 bits to dst.
func AppendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendF64s appends every element of vals to dst.
func AppendF64s(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = AppendF64(dst, v)
	}
	return dst
}

// F64At decodes the i-th float64 of a raw payload.
func F64At(payload []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
}

// CopyF64s decodes len(dst) float64s from payload into dst. The payload
// length must be exactly 8*len(dst).
func CopyF64s(dst []float64, payload []byte) error {
	if len(payload) != 8*len(dst) {
		return fmt.Errorf("exchange: payload %d bytes, want %d doubles", len(payload), len(dst))
	}
	decodeF64s(dst, payload)
	return nil
}

// decodeF64s decodes the first len(dst) float64s of a payload whose
// length the caller has already checked.
func decodeF64s(dst []float64, payload []byte) {
	for i := range dst {
		dst[i] = F64At(payload, i)
	}
}
