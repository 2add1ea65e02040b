package exchange

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// Messaged carries the boundary exchange over length-prefixed binary
// frames on per-peer byte streams — the message-shaped form of the
// protocol in internal/shard/doc.go. One instance serves either all K
// workers of an in-process solve over loopback streams (NewLoopback) or
// the single worker of one process in a cross-process solve whose
// streams are socket connections (NewPeer).
//
// Per iteration and worker w:
//
//	GatherM:  send one FrameM per peer j with manifest row
//	          MEdges[w][j] non-empty — the packed row w posted to the
//	          mailbox (Mailbox.Post: the m-blocks of w's edges whose
//	          boundary variable j owns, in manifest order, formed as
//	          x + u, bit-identical to the reference m-update) — then
//	          decode the peers' FrameM payloads into w's inbox rows,
//	          which is where Mailbox.Combine reads them. Nothing is
//	          scattered into M and w's own contributions are not copied
//	          anywhere.
//	ScatterZ: send one FrameZ per peer j with manifest row ZVars[w][j]
//	          non-empty (the owner-combined z blocks), then ingest the
//	          peers' z into the Z array.
//
// Each sync point is its Begin (put this worker's outbound frames on
// the wire) followed by its Finish (ingest the peers'). The shard loop
// calls Begin as soon as its outbound boundary state is final, computes
// interior phases while the frames are in flight, and calls Finish only
// where the remote data is consumed; GatherM and ScatterZ are the two
// halves back to back and produce bit-identical frames.
//
// With delta mode on (EnableDelta), steady-state frames switch to
// FrameMDelta/FrameZDelta: a block bitmap plus only the d-blocks that
// changed beyond the threshold since they were last shipped (delta.go).
// The first frame to each peer after construction or ResetDelta is
// dense and primes the sender's shadow. At threshold 0 the changed-set
// is exact (bit-pattern compare), so iterates are unchanged; wire
// payload still shrinks once blocks stop changing.
//
// With a shared graph (loopback) the ingested z bytes already equal the
// owner's in-place writes, so receivers decode and verify lengths but
// skip the store; the frame receipt itself is the happens-before edge
// that replaces the barrier crossing. (At a nonzero delta threshold
// this makes loopback z slightly *more* exact than a cross-process run,
// which holds unshipped blocks at their last-shipped value; threshold 0
// is bit-identical everywhere.)
//
// Failure semantics are fail-stop per solve: construction and handshake
// errors are returned by the coordinator protocol (internal/shard), but
// a stream that errors, times out, or desynchronizes mid-solve panics
// with context — the admm.Backend iteration contract has no error
// channel, and a half-exchanged iteration has no consistent state to
// resume from. The worker loop (internal/shard) recovers these panics
// into session errors, so a dead peer fails the solve, never the worker
// process. SetIOTimeout bounds each frame read/write so a stalled (not
// just dead) peer also surfaces as a failure instead of a wedge. See
// docs/fault-tolerance.md.
type Messaged struct {
	g      *graph.Graph
	man    *Manifest
	mb     *Mailbox
	shared bool

	// streams[w][j] is worker w's duplex stream to peer j; only local
	// workers' rows are populated.
	streams [][]io.ReadWriteCloser
	state   []msgWorkerState
	// acct is the lowest local worker id; it owns the rounds counter.
	acct int

	// Delta mode (EnableDelta): prevM/prevZ[w*k+j] shadow the last
	// values shipped on that pair (allocated lazily at priming);
	// primedM/primedZ gate the dense priming frame. The shadows are
	// only touched by the owning worker's send path, which is joined
	// before the next round begins.
	deltaOn  bool
	deltaThr float64
	prevM    [][]float64
	prevZ    [][]float64
	primedM  []bool
	primedZ  []bool

	// ioTimeout, when > 0, bounds each mesh frame read and write via
	// the streams' deadline support (loopback pipes have none and stay
	// unbounded). sendFault carries a send-goroutine panic across
	// dispatchSends' completion channel so it re-raises on the worker
	// goroutine, where the session loop can recover it.
	ioTimeout time.Duration
	sendFault any

	bytes  atomic.Int64
	wire   atomic.Int64
	frames atomic.Int64
	dense  atomic.Int64
	delta  atomic.Int64
	rounds int64
}

// msgWorkerState is one local worker's reusable per-round scratch.
type msgWorkerState struct {
	round   uint32
	sendBuf []byte
	recvBuf []byte
	// zRow gathers one z manifest row's current doubles before
	// encoding (needed for the delta compare; reused for dense).
	zRow []float64
	// pend is the in-flight send completion between a Begin and its
	// Finish.
	pend <-chan struct{}
}

// newWorkerState sizes worker w's scratch for the largest frame the
// manifest has it send and receive, so a solve allocates each buffer
// once instead of growing it by doubling over its first rounds.
func newWorkerState(man *Manifest, w int) msgWorkerState {
	k := man.Shards
	out, in := 0, 0 // blocks in the largest outbound / inbound row
	for j := 0; j < k; j++ {
		if j == w {
			continue
		}
		out = max(out, len(man.MEdges[w*k+j]), len(man.ZVars[w*k+j]))
		in = max(in, len(man.MEdges[j*k+w]), len(man.ZVars[j*k+w]))
	}
	return msgWorkerState{
		zRow:    make([]float64, 0, out*man.D),
		sendBuf: make([]byte, 0, frameOverhead+DeltaMaskLen(out)+out*man.D*8),
		recvBuf: make([]byte, 0, frameOverhead+DeltaMaskLen(in)+in*man.D*8),
	}
}

// NewLoopback returns a messaged exchanger carrying all of the
// manifest's workers in one process over in-memory streams, against the
// shared graph g. Every boundary byte is framed, serialized, and
// decoded exactly as over sockets — the wire codec without the kernel.
//
// The unnamed bool was the schedule selector while rows could carry
// M-blocks; it selects nothing and stays only for callers pinned to the
// three-argument form.
func NewLoopback(g *graph.Graph, man *Manifest, _ bool) *Messaged {
	mesh := loopbackMesh(man.Shards)
	m := &Messaged{
		g:       g,
		man:     man,
		mb:      newMailbox(g, man, false, -1),
		shared:  true,
		streams: mesh,
		state:   make([]msgWorkerState, man.Shards),
		acct:    0,
	}
	for w := range m.state {
		m.state[w] = newWorkerState(man, w)
	}
	return m
}

// NewPeer returns the messaged exchanger for worker id of a
// cross-process solve: conns[j] is the established duplex connection to
// peer j (nil for id itself and for peers with no shared boundary). The
// graph is this process's private replica, so ingested state is stored.
// Close closes the peer connections.
func NewPeer(g *graph.Graph, man *Manifest, id int, conns []io.ReadWriteCloser) (*Messaged, error) {
	if len(conns) != man.Shards {
		return nil, fmt.Errorf("exchange: %d peer conns for %d shards", len(conns), man.Shards)
	}
	k := man.Shards
	for j := 0; j < k; j++ {
		if j == id {
			continue
		}
		need := len(man.MEdges[id*k+j]) > 0 || len(man.MEdges[j*k+id]) > 0 ||
			len(man.ZVars[id*k+j]) > 0 || len(man.ZVars[j*k+id]) > 0
		if need && conns[j] == nil {
			return nil, fmt.Errorf("exchange: worker %d needs a peer connection to %d (boundary traffic in manifest)", id, j)
		}
	}
	streams := make([][]io.ReadWriteCloser, k)
	streams[id] = conns
	m := &Messaged{
		g:       g,
		man:     man,
		mb:      newMailbox(g, man, false, id),
		shared:  false,
		streams: streams,
		state:   make([]msgWorkerState, k),
		acct:    id,
	}
	m.state[id] = newWorkerState(man, id)
	return m, nil
}

// EnableDelta switches steady-state data frames to delta encoding with
// the given change threshold (>= 0; 0 ships exactly the blocks whose
// bit pattern changed). Both ends of every stream must agree — the
// session config carries the knob. Call before the solve starts.
func (m *Messaged) EnableDelta(threshold float64) {
	k := m.man.Shards
	m.deltaOn = true
	m.deltaThr = threshold
	m.prevM = make([][]float64, k*k)
	m.prevZ = make([][]float64, k*k)
	m.primedM = make([]bool, k*k)
	m.primedZ = make([]bool, k*k)
}

// ResetDelta invalidates the delta shadows: the next frame on every
// pair is sent dense and re-primes. Call after boundary state changed
// out of band (a mid-session state install), never mid-iteration.
func (m *Messaged) ResetDelta() {
	if !m.deltaOn {
		return
	}
	for i := range m.primedM {
		m.primedM[i] = false
		m.primedZ[i] = false
	}
}

// SetIOTimeout bounds each subsequent frame read and write to d (0
// restores unbounded I/O). Streams without deadline support (loopback
// pipes) are unaffected. Call before the solve starts; the exchanger
// applies it per operation, so the bound is per frame, not per solve.
func (m *Messaged) SetIOTimeout(d time.Duration) { m.ioTimeout = d }

// deadlined is the deadline surface of net.Conn streams.
type deadlined interface {
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

func (m *Messaged) armRead(s io.ReadWriteCloser) {
	if m.ioTimeout <= 0 {
		return
	}
	if d, ok := s.(deadlined); ok {
		d.SetReadDeadline(time.Now().Add(m.ioTimeout))
	}
}

func (m *Messaged) armWrite(s io.Writer) {
	if m.ioTimeout <= 0 {
		return
	}
	if d, ok := s.(deadlined); ok {
		d.SetWriteDeadline(time.Now().Add(m.ioTimeout))
	}
}

// Mailbox returns the packed boundary rows this exchanger carries:
// workers Post their outbound rows to it before BeginGatherM and
// Combine from their inbox rows after FinishGatherM.
func (m *Messaged) Mailbox() *Mailbox { return m.mb }

// BeginGatherM ships worker w's posted rows (sync point 1, send half).
// The rows must be final — Mailbox.Post reads x + u of the sent edges,
// so their x-phase is complete; interior functions may still be
// pending.
func (m *Messaged) BeginGatherM(w int) {
	m.state[w].pend = m.dispatchSends(w, (*Messaged).sendM)
}

// sendM ships worker w's off-diagonal m-rows as the mailbox holds them.
func (m *Messaged) sendM(w int) {
	k := m.man.Shards
	st := &m.state[w]
	for j := 0; j < k; j++ {
		if row := m.mb.out[w*k+j]; len(row) > 0 {
			m.sendRow(st, w, j, FrameM, FrameMDelta, row, m.primedM, m.prevM)
		}
	}
}

// FinishGatherM decodes the peers' m-rows into worker w's inbox and
// completes sync point 1. A delta frame rewrites only the blocks it
// carries; the rest of the row keeps what was last shipped, which is
// what the sender's shadow holds.
func (m *Messaged) FinishGatherM(w int) {
	k, d := m.man.Shards, m.man.D
	st := &m.state[w]
	for j := 0; j < k; j++ {
		row := m.mb.in[j*k+w]
		if len(row) == 0 {
			continue
		}
		blocks := len(row) / d
		payload, isDelta := m.recvData(st, w, j, FrameM, FrameMDelta, blocks)
		if isDelta {
			data := payload[DeltaMaskLen(blocks):]
			idx := 0
			for bi := 0; bi < blocks; bi++ {
				if MaskBit(payload, bi) {
					decodeF64s(row[bi*d:bi*d+d], data[idx*d*8:])
					idx++
				}
			}
		} else {
			decodeF64s(row, payload)
		}
	}
	m.joinSends(st.pend)
	st.pend = nil
}

// GatherM implements Exchanger (sync point 1).
func (m *Messaged) GatherM(w int) {
	m.BeginGatherM(w)
	m.FinishGatherM(w)
}

// BeginScatterZ ships worker w's owned boundary z blocks (sync point 2,
// send half). The owned boundary z-update must be complete; edge-local
// phases may still be pending.
func (m *Messaged) BeginScatterZ(w int) {
	m.state[w].pend = m.dispatchSends(w, (*Messaged).sendZ)
}

// sendZ gathers and ships worker w's owned boundary z rows.
func (m *Messaged) sendZ(w int) {
	k, d := m.man.Shards, m.man.D
	st := &m.state[w]
	g := m.g
	for j := 0; j < k; j++ {
		row := m.man.ZVars[w*k+j]
		if j == w || len(row) == 0 {
			continue
		}
		cur := st.zRow[:0]
		for _, v := range row {
			base := int(v) * d
			cur = append(cur, g.Z[base:base+d]...)
		}
		st.zRow = cur
		m.sendRow(st, w, j, FrameZ, FrameZDelta, cur, m.primedZ, m.prevZ)
	}
}

// FinishScatterZ ingests the peers' owner-combined z blocks into Z and
// completes sync point 2 (and the round).
func (m *Messaged) FinishScatterZ(w int) {
	k, d := m.man.Shards, m.man.D
	st := &m.state[w]
	g := m.g
	for j := 0; j < k; j++ {
		row := m.man.ZVars[j*k+w]
		if j == w || len(row) == 0 {
			continue
		}
		payload, isDelta := m.recvData(st, w, j, FrameZ, FrameZDelta, len(row))
		if m.shared {
			// The owner already wrote these exact bytes into the shared
			// Z; storing them again would race with nothing to gain.
			// Receipt alone orders the owner's write before this
			// worker's phase-C reads.
			continue
		}
		if isDelta {
			maskLen := DeltaMaskLen(len(row))
			data := payload[maskLen:]
			idx := 0
			for bi, v := range row {
				if !MaskBit(payload, bi) {
					continue
				}
				base := int(v) * d
				for i := 0; i < d; i++ {
					g.Z[base+i] = F64At(data, idx*d+i)
				}
				idx++
			}
			continue
		}
		for idx, v := range row {
			base := int(v) * d
			for i := 0; i < d; i++ {
				g.Z[base+i] = F64At(payload, idx*d+i)
			}
		}
	}
	m.joinSends(st.pend)
	st.pend = nil
	st.round++
	if w == m.acct {
		m.rounds++
	}
}

// ScatterZ implements Exchanger (sync point 2).
func (m *Messaged) ScatterZ(w int) {
	m.BeginScatterZ(w)
	m.FinishScatterZ(w)
}

// sendRow encodes one manifest row, already gathered into cur, and
// ships it to peer j: dense when delta mode is off or the pair is
// unprimed (the priming frame also seeds the shadow), delta otherwise.
func (m *Messaged) sendRow(st *msgWorkerState, w, j int, denseKind, deltaKind byte, cur []float64, primed []bool, prev [][]float64) {
	stream := m.streams[w][j]
	pi := w*m.man.Shards + j
	if m.deltaOn && primed[pi] {
		buf := beginFrame(st.sendBuf[:0], deltaKind, st.round)
		var sent int
		buf, sent = AppendDeltaPayload(buf, cur, prev[pi], m.man.D, m.deltaThr)
		st.sendBuf = m.sendFrame(stream, buf, w, j, int64(sent*m.man.D*8), true)
		return
	}
	buf := beginFrame(st.sendBuf[:0], denseKind, st.round)
	buf = AppendF64s(buf, cur)
	if m.deltaOn {
		if prev[pi] == nil {
			prev[pi] = make([]float64, len(cur))
		}
		copy(prev[pi], cur)
		primed[pi] = true
	}
	st.sendBuf = m.sendFrame(stream, buf, w, j, int64(len(cur)*8), false)
}

// dispatchSends runs worker w's send (sendM or sendZ, passed as a method
// expression so the loopback path allocates nothing per round) inline
// on loopback streams, whose writes never block, and on a goroutine
// over real sockets, where a large frame could otherwise deadlock
// head-to-head against a peer writing to us. A send failure panics; on
// the goroutine path the panic is captured and re-raised by joinSends
// on the calling worker goroutine — an unrecovered goroutine panic
// would kill the whole worker process, which must instead fail the
// session and serve the next one.
func (m *Messaged) dispatchSends(w int, send func(*Messaged, int)) <-chan struct{} {
	if m.shared {
		send(m, w)
		return closedCh
	}
	done := make(chan struct{})
	go func() {
		defer func() {
			m.sendFault = recover()
			close(done)
		}()
		send(m, w)
	}()
	return done
}

// joinSends waits for dispatchSends' completion and re-raises any
// captured send panic on the caller.
func (m *Messaged) joinSends(done <-chan struct{}) {
	<-done
	if f := m.sendFault; f != nil {
		m.sendFault = nil
		panic(f)
	}
}

var closedCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// beginFrame starts an encoded frame in buf; finishFrame (inside
// sendFrame) patches the length once the payload is appended.
func beginFrame(buf []byte, kind byte, seq uint32) []byte {
	buf = append(buf, 0, 0, 0, 0, kind)
	return binary.LittleEndian.AppendUint32(buf, seq)
}

// sendFrame patches the frame length, writes the frame, and accounts
// traffic: moved is the payload doubles actually carried (excluding the
// delta bitmap, which is framing), wire is the full frame length.
func (m *Messaged) sendFrame(w io.Writer, buf []byte, from, to int, moved int64, delta bool) []byte {
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
	m.armWrite(w)
	if _, err := w.Write(buf); err != nil {
		panic(fmt.Sprintf("exchange: worker %d: send to peer %d: %v", from, to, err))
	}
	m.bytes.Add(moved)
	m.wire.Add(int64(len(buf)))
	m.frames.Add(1)
	if delta {
		m.delta.Add(1)
	} else {
		m.dense.Add(1)
	}
	return buf
}

// recvData reads and validates one data frame from peer j: the round
// sequence must match, the kind must be the expected dense kind (or its
// delta form when delta mode is on), and the payload must be exactly
// the manifest row's dense size or a well-formed delta for it —
// otherwise the stream has desynchronized and the solve fail-stops.
func (m *Messaged) recvData(st *msgWorkerState, w, j int, denseKind, deltaKind byte, blocks int) ([]byte, bool) {
	m.armRead(m.streams[w][j])
	f, buf, err := ReadFrame(m.streams[w][j], st.recvBuf)
	st.recvBuf = buf
	if err != nil {
		panic(fmt.Sprintf("exchange: worker %d: recv from peer %d: %v", w, j, err))
	}
	if f.Seq != st.round {
		panic(fmt.Sprintf("exchange: worker %d: peer %d desynchronized: frame kind %d seq %d, want kind %d seq %d",
			w, j, f.Kind, f.Seq, denseKind, st.round))
	}
	switch f.Kind {
	case denseKind:
		if len(f.Payload) != blocks*m.man.D*8 {
			panic(fmt.Sprintf("exchange: worker %d: peer %d frame payload %d bytes, manifest expects %d",
				w, j, len(f.Payload), blocks*m.man.D*8))
		}
		return f.Payload, false
	case deltaKind:
		if !m.deltaOn {
			panic(fmt.Sprintf("exchange: worker %d: peer %d sent delta frame kind %d but delta mode is off", w, j, f.Kind))
		}
		if _, err := CheckDeltaPayload(f.Payload, blocks, m.man.D); err != nil {
			panic(fmt.Sprintf("exchange: worker %d: peer %d delta frame invalid: %v", w, j, err))
		}
		return f.Payload, true
	default:
		panic(fmt.Sprintf("exchange: worker %d: peer %d desynchronized: frame kind %d seq %d, want kind %d seq %d",
			w, j, f.Kind, f.Seq, denseKind, st.round))
	}
}

// Stats implements Exchanger.
func (m *Messaged) Stats() Stats {
	return Stats{
		BytesMoved:     m.bytes.Load(),
		WireBytes:      m.wire.Load(),
		Frames:         m.frames.Load(),
		DenseFrames:    m.dense.Load(),
		DeltaFrames:    m.delta.Load(),
		Rounds:         m.rounds,
		PredictedWords: m.man.Words(),
	}
}

// Close implements Exchanger.
func (m *Messaged) Close() error {
	var first error
	for _, row := range m.streams {
		for _, s := range row {
			if s == nil {
				continue
			}
			if err := s.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

var _ Exchanger = (*Messaged)(nil)
