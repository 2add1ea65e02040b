package exchange

import (
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
// Every data frame carries its whole manifest row, every round: one
// codec, no option (docs/transport.md records what a second one would
// have to beat).
//
// With a shared graph (loopback) the ingested z bytes already equal the
// owner's in-place writes, so receivers decode and verify lengths but
// skip the store; the frame receipt itself is the happens-before edge
// that replaces the barrier crossing.
//
// Failure semantics are fail-stop per solve: construction and handshake
// errors are returned by the coordinator protocol (internal/shard), but
// a stream that errors, times out, or desynchronizes mid-solve panics
// with context — the admm.Backend iteration contract has no error
// channel, and a half-exchanged iteration has no consistent state to
// resume from. The worker loop (internal/shard) recovers these panics
// into session errors, so a dead peer fails the solve, never the worker
// process. A stalled (not just dead) peer is the worker session's to
// notice: Waiting reports which peer a worker has been blocked on and
// for how long, and closing the exchanger ends the wait. See
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

	// sendFault carries a send-goroutine panic across dispatchSends'
	// completion channel so it re-raises on the worker goroutine, where
	// the session loop can recover it.
	sendFault any

	bytes  atomic.Int64
	wire   atomic.Int64
	frames atomic.Int64
	rounds int64
}

// msgWorkerState is one local worker's reusable per-round scratch.
type msgWorkerState struct {
	round   uint32
	sendBuf []byte
	recvBuf []byte
	// pend is the in-flight send completion between a Begin and its
	// Finish.
	pend <-chan struct{}
	// recvWait and sendWait are the mesh read and write this worker is
	// in, if any: waitMark of its peer, or 0. The write runs on the
	// send goroutine, so it counts as a wait only while joinWait, the
	// worker's own wait in joinSends (waitMark(-1), or 0), is set.
	recvWait, sendWait, joinWait atomic.Int64
}

// waitMark packs a mesh wait on peer that begins now: microseconds since
// waitEpoch, shifted left 8 bits, or'd with peer+1.
func waitMark(peer int) int64 { return time.Since(waitEpoch).Microseconds()<<8 | int64(peer+1) }

var waitEpoch = time.Now()

// initWorkerState sizes worker w's scratch for the largest frame the
// manifest has it send and receive, so a solve allocates each buffer
// once instead of growing it by doubling over its first rounds.
func (m *Messaged) initWorkerState(w int) {
	man := m.man
	k := man.Shards
	out, in := 0, 0 // blocks in the largest outbound / inbound row
	for j := 0; j < k; j++ {
		if j == w {
			continue
		}
		out = max(out, len(man.MEdges[w*k+j]), len(man.ZVars[w*k+j]))
		in = max(in, len(man.MEdges[j*k+w]), len(man.ZVars[j*k+w]))
	}
	st := &m.state[w]
	st.sendBuf = make([]byte, 0, frameOverhead+out*man.D*8)
	st.recvBuf = make([]byte, 0, frameOverhead+in*man.D*8)
}

// NewLoopback returns a messaged exchanger carrying all of the
// manifest's workers in one process over in-memory streams, against the
// shared graph g. Every boundary byte is framed, serialized, and
// decoded exactly as over sockets — the wire codec without the kernel.
//
// The unnamed bool was the schedule selector while rows could carry
// M-blocks; it selects nothing and stays only for the frozen
// benchmark/probes.go, pinned to the three-argument form (it goes with
// the benchmark unfreeze, ROADMAP).
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
		m.initWorkerState(w)
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
		if j != id && man.Linked(id, j) && conns[j] == nil {
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
	m.initWorkerState(id)
	return m, nil
}

// Waiting reports the mesh peer worker w has waited on longest, to read
// its frame or to finish writing one to it, and for how long; peer is -1
// while w waits on none. A write still in flight while w computes is
// no wait. It is safe to call while the worker runs.
func (m *Messaged) Waiting(w int) (peer int, waited time.Duration) {
	st := &m.state[w]
	// The marks are read before the clock, so none is later than now.
	marks := [2]int64{st.recvWait.Load(), st.sendWait.Load()}
	switch join := st.joinWait.Load(); {
	case join == 0:
		marks[1] = 0
	case marks[1] != 0 && join>>8 > marks[1]>>8:
		marks[1] = join&^0xff | marks[1]&0xff // the wait began at the join
	}
	now, peer := waitMark(-1), -1
	for _, v := range marks {
		if d := time.Duration(now>>8-v>>8) * time.Microsecond; v != 0 && (peer < 0 || d > waited) {
			peer, waited = int(v&0xff)-1, d
		}
	}
	return peer, waited
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
			buf := AppendF64s(BeginFrame(st.sendBuf[:0], FrameM, st.round), row)
			st.sendBuf = m.sendFrame(m.streams[w][j], buf, w, j)
		}
	}
}

// FinishGatherM decodes the peers' m-rows into worker w's inbox and
// completes sync point 1.
func (m *Messaged) FinishGatherM(w int) {
	k := m.man.Shards
	st := &m.state[w]
	for j := 0; j < k; j++ {
		if row := m.mb.in[j*k+w]; len(row) > 0 {
			decodeF64s(row, m.recvData(st, w, j, FrameM, len(row)))
		}
	}
	m.joinSends(st)
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
		buf := BeginFrame(st.sendBuf[:0], FrameZ, st.round)
		for _, v := range row {
			base := int(v) * d
			buf = AppendF64s(buf, g.Z[base:base+d])
		}
		st.sendBuf = m.sendFrame(m.streams[w][j], buf, w, j)
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
		payload := m.recvData(st, w, j, FrameZ, len(row)*d)
		if m.shared {
			// The owner already wrote these exact bytes into the shared
			// Z; storing them again would race with nothing to gain.
			// Receipt alone orders the owner's write before this
			// worker's phase-C reads.
			continue
		}
		for idx, v := range row {
			base := int(v) * d
			decodeF64s(g.Z[base:base+d], payload[idx*d*8:])
		}
	}
	m.joinSends(st)
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

// joinSends waits for the pending dispatchSends' completion and
// re-raises any captured send panic on the caller.
func (m *Messaged) joinSends(st *msgWorkerState) {
	if !m.shared { // a loopback send ran inline: there is nothing to wait for
		st.joinWait.Store(waitMark(-1))
		<-st.pend
		st.joinWait.Store(0)
	}
	st.pend = nil
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

// sendFrame finishes and writes a frame begun with BeginFrame, and
// accounts traffic: the payload doubles carried and the full frame
// length.
func (m *Messaged) sendFrame(w io.Writer, buf []byte, from, to int) []byte {
	m.state[from].sendWait.Store(waitMark(to))
	err := FinishFrame(w, buf)
	m.state[from].sendWait.Store(0)
	if err != nil {
		panic(fmt.Sprintf("exchange: worker %d: send to peer %d: %v", from, to, err))
	}
	m.bytes.Add(int64(len(buf) - frameOverhead))
	m.wire.Add(int64(len(buf)))
	m.frames.Add(1)
	return buf
}

// recvData reads and validates one data frame from peer j: the round
// sequence and the kind must match and the payload must be exactly the
// manifest row's doubles — otherwise the stream has desynchronized (or
// the peer speaks a retired frame kind) and the solve fail-stops.
func (m *Messaged) recvData(st *msgWorkerState, w, j int, kind byte, doubles int) []byte {
	st.recvWait.Store(waitMark(j))
	f, buf, err := ReadFrame(m.streams[w][j], st.recvBuf)
	st.recvWait.Store(0)
	st.recvBuf = buf
	if err != nil {
		panic(fmt.Sprintf("exchange: worker %d: recv from peer %d: %v", w, j, err))
	}
	if f.Seq != st.round || f.Kind != kind {
		panic(fmt.Sprintf("exchange: worker %d: peer %d desynchronized: frame kind %d seq %d, want kind %d seq %d",
			w, j, f.Kind, f.Seq, kind, st.round))
	}
	if len(f.Payload) != doubles*8 {
		panic(fmt.Sprintf("exchange: worker %d: peer %d frame payload %d bytes, manifest expects %d",
			w, j, len(f.Payload), doubles*8))
	}
	return f.Payload
}

// Stats implements Exchanger.
func (m *Messaged) Stats() Stats {
	return Stats{
		BytesMoved:     m.bytes.Load(),
		WireBytes:      m.wire.Load(),
		Frames:         m.frames.Load(),
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
