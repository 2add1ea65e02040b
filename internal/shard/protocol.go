package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/admm"
	"repro/internal/exchange"
	"repro/internal/graph"
)

// The cross-process control protocol between a Remote coordinator and
// its paradmm-shardworker processes. Everything rides the frame format
// of internal/exchange; control payloads are JSON, bulk state payloads
// are raw little-endian float64 arrays whose layout both ends derive
// from the same deterministic partition. docs/transport.md documents
// the full session lifecycle, frame-by-frame.
//
// Session lifecycle, per solve — one opener, whatever the worker's
// cache holds:
//
//	coordinator -> worker i:  Cfg   {worker, shards, problem, knobs, peers, state digest}
//	worker i    -> worker j<i: Peer {from, session}      (mesh dial)
//	worker i    -> coordinator: Tick {peer, waited}  (every tickEvery from Cfg on: build, mesh wait)
//	worker i    -> coordinator: Ready {graph shape, manifest digest, cache hit}
//	coordinator -> worker i:  State {Rho|Alpha|X|U|N|Z}   (skipped on a state hit)
//	worker i    -> coordinator: Tick {-1, 0}      (every tickEvery while it installs State)
//	repeat:
//	  coordinator -> worker i:  Iter {iters, zprev, edit}
//	  ...workers exchange FrameM/FrameZ over the mesh per iteration...
//	  worker i    -> coordinator: Tick {peer, waited}  (every tickEvery while the block runs)
//	  worker i    -> coordinator: Up {block stats, owned state}
//	coordinator -> worker i:  Bye
//
// After the handshake each block is one round trip: one Iter down,
// carrying what admm.Run changed in the coordinator's graph after the
// previous block, and one Up back. Only Iter and Bye go down. A worker
// ticks whenever the coordinator waits on it — from its Cfg to its
// Ready, through its install of the State push, through every block —
// so one rule, the liveness rule below, bounds the whole session and
// none of it has a timeout of its own.
//
// Any side that detects a malformed frame, a shape or manifest-digest
// mismatch, or an I/O failure sends Err (when it still can) and tears
// the session down: transport failures are fail-stop, because a
// half-exchanged iteration has no consistent state to resume from.

// wireConfig opens a session (FrameCfg payload).
type wireConfig struct {
	Session  uint64          `json:"session"`
	Worker   int             `json:"worker"`
	Shards   int             `json:"shards"`
	Workload string          `json:"workload"`
	Spec     json.RawMessage `json:"spec"`
	// Peers lists every worker's control endpoint, indexed by worker;
	// worker i dials workers j < i it shares boundary state with.
	Peers []string `json:"peers"`
	// StateDigest fingerprints the exact FrameState payload the
	// coordinator would push (stateDigest): a worker whose cached
	// snapshot has the same digest restores it and answers a state hit,
	// and the push is skipped.
	StateDigest string `json:"state_digest,omitempty"`
}

// Worker-cache tiers (wireReady.Hit, WorkerStats.Cache). On the wire
// the empty string is a miss: the worker built the problem from the
// Cfg's workload spec; WorkerStats records it as CacheMiss.
const (
	// CacheState: problem key and state digest both match — the
	// worker restored its cached snapshot and the State push is skipped.
	CacheState = "state"
	// CacheGraph: the problem key matches but the state digest does
	// not (a warm start, rho adaptation, or a different initial iterate)
	// — the worker reuses the cached graph, partition and manifest, and
	// the State push follows.
	CacheGraph = "graph"
	CacheMiss  = "miss"
)

// problemKey fingerprints what a worker must have built for a cached
// session to be reusable: the workload and its spec plus the shard
// count, the only knob that shapes the partition. The worker computes
// it from the Cfg; same key => same graph topology, plan and manifest
// on a worker that rebuilds deterministically (the coordinator's
// shape+digest check on Ready still verifies, never trusts, this).
func problemKey(workload string, spec []byte, shards int) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|", workload, shards)
	h.Write(spec)
	return fmt.Sprintf("%016x", h.Sum64())
}

// stateDigest fingerprints a FrameState payload (FNV-64a). Collisions
// only risk skipping a push whose bytes differed — 64 bits against a
// payload both ends already agree on structurally is comfortably below
// the noise floor of the transport's own error rates.
func stateDigest(payload []byte) string {
	h := fnv.New64a()
	h.Write(payload)
	return fmt.Sprintf("%016x", h.Sum64())
}

// wirePeer opens a worker-to-worker mesh connection (FramePeer payload).
type wirePeer struct {
	Session uint64 `json:"session"`
	From    int    `json:"from"`
}

// wireReady acknowledges a config (FrameReady payload): the graph's
// shape and the worker's boundary-manifest digest, which the
// coordinator verifies against its own before any state moves, and the
// worker-cache tier the session was served from (CacheState,
// CacheGraph, or "" for a build).
type wireReady struct {
	Functions      int    `json:"functions"`
	Variables      int    `json:"variables"`
	Edges          int    `json:"edges"`
	D              int    `json:"d"`
	ManifestDigest string `json:"manifest_digest"`
	Hit            string `json:"hit,omitempty"`
}

// wireIter commands one block of iterations (FrameIter payload). ZPrev
// asks the worker to capture its owned z after iteration Iters-1 and
// append it to the block's state upload — the coordinator assembles the
// captures into the zPrev array its dual-residual computation needs,
// instead of splitting the block in two just to copy z mid-block.
type wireIter struct {
	Iters int  `json:"iters"`
	ZPrev bool `json:"zprev,omitempty"`
	// Edit is Run's edit after the previous block, replayed first.
	Edit wireEdit `json:"edit,omitzero"`
}

// wireEdit is an admm.Edit; a rescale travels as the IEEE-754 bits of
// its factor, floor and ceiling, exact even for a +Inf ceiling.
type wireEdit struct {
	Flush   bool     `json:"flush,omitempty"`
	Rescale []uint64 `json:"rescale,omitempty"`
}

func encodeEdit(e admm.Edit) wireEdit {
	w := wireEdit{Flush: e.Flush}
	if r := e.Rescale; r != (admm.Rescale{}) {
		w.Rescale = []uint64{math.Float64bits(r.Factor), math.Float64bits(r.Min), math.Float64bits(r.Max)}
	}
	return w
}

// decode refuses a rescale adaptRho could not have taken.
func (w wireEdit) decode() (admm.Edit, error) {
	e := admm.Edit{Flush: w.Flush}
	if w.Rescale == nil {
		return e, nil
	}
	if len(w.Rescale) != 3 {
		return e, fmt.Errorf("rescale of %d words, want 3", len(w.Rescale))
	}
	f := func(i int) float64 { return math.Float64frombits(w.Rescale[i]) }
	e.Rescale = admm.Rescale{Factor: f(0), Min: f(1), Max: f(2)}
	return e, e.Rescale.Check()
}

// wirePong answers a FramePing health probe: whether a session is
// running and how many have completed since the worker started.
type wirePong struct {
	Active   bool `json:"active"`
	Sessions int  `json:"sessions"`
}

// writeJSONFrame marshals v and writes it as one frame of the given kind.
func writeJSONFrame(w io.Writer, kind byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return exchange.WriteFrame(w, kind, 0, payload)
}

// remoteError is a failure the far side reported via FrameErr, kept
// typed so retry logic can tell a worker's considered refusal (bad
// config — retrying cannot help) from transport noise.
type remoteError struct{ msg string }

func (e *remoteError) Error() string { return "shard: remote error: " + e.msg }

// transient reports whether the remote refusal can clear on its own —
// today only "worker busy" states, which resolve when the previous
// session finishes tearing down.
func (e *remoteError) transient() bool { return strings.Contains(e.msg, "busy") }

// decodeJSONFrame strictly decodes a control payload.
func decodeJSONFrame(f exchange.Frame, into any) error {
	dec := json.NewDecoder(bytes.NewReader(f.Payload))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// The liveness rule of a worker session (docs/fault-tolerance.md): from
// its Cfg until its Ready, while it installs the State push, and while
// it runs a block, a worker sends a Tick every tickEvery; the
// coordinator fails the handshake or the block once a worker's control
// stream is silent for livenessBound, or every worker it still waits on
// has waited on a mesh peer that long. No slow build or block trips it.
// The same bound caps every dial, Solve's probes, the opener a worker's
// accept loop waits for, and Solve's patience with busy workers.
const tickEvery, livenessBound = time.Second, 10 * time.Second

// liveTick and liveBound hold the two constants for the session code;
// export_test.go shrinks them.
var liveTick, liveBound atomic.Int64

func init() {
	liveTick.Store(int64(tickEvery))
	liveBound.Store(int64(livenessBound))
}

// liveConn is a control connection during a block. Each Read gets the
// bound for its first byte, and a Write's deadline moves on while its
// bytes move, so a frame of any size crosses on a slow link and only
// silence for the bound trips the rule.
type liveConn struct {
	net.Conn
	bound time.Duration
}

func (c liveConn) Read(p []byte) (int, error) {
	c.SetReadDeadline(time.Now().Add(c.bound))
	return c.Conn.Read(p)
}

func (c liveConn) Write(p []byte) (n int, err error) {
	for {
		c.SetWriteDeadline(time.Now().Add(c.bound))
		m, err := c.Conn.Write(p[n:])
		if n += m; m == 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
			return n, err
		}
	}
}

// appendTick encodes a Tick payload: two int64 words, the mesh peer the
// worker waits on (-1 while it computes) and for how many nanoseconds.
func appendTick(dst []byte, peer int, waited time.Duration) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(peer))
	return binary.LittleEndian.AppendUint64(dst, uint64(waited))
}

// decodeTick checks worker self's Tick: its exact length, a peer in
// -1..shards-1 other than self, and a wait that is not negative.
func decodeTick(payload []byte, self, shards int) (peer int, waited time.Duration, err error) {
	if len(payload) != 16 {
		return 0, 0, fmt.Errorf("shard: tick payload %d bytes, want 16", len(payload))
	}
	p, waited := int64(binary.LittleEndian.Uint64(payload)), time.Duration(binary.LittleEndian.Uint64(payload[8:]))
	if p < -1 || p >= int64(shards) || p == int64(self) || waited < 0 {
		return 0, 0, fmt.Errorf("shard: tick says worker %d waited on peer %d for %d ns", self, p, waited)
	}
	return int(p), waited, nil
}

// DialAddr connects to a worker endpoint (see admm.SplitAddr) within
// the liveness bound; ctx aborts the dial early.
func DialAddr(ctx context.Context, addr string) (net.Conn, error) {
	network, address := admm.SplitAddr(addr)
	d := net.Dialer{Timeout: time.Duration(liveBound.Load())}
	return d.DialContext(ctx, network, address)
}

// ListenAddr listens on a worker endpoint (see admm.SplitAddr).
func ListenAddr(addr string) (net.Listener, error) {
	network, address := admm.SplitAddr(addr)
	return net.Listen(network, address)
}

// State payload layout: the down-sync (FrameState), sent once at the
// handshake, concatenates Rho|Alpha|X|U|N|Z. M is never shipped: the
// workers' kernels form every m-contribution they read in registers, so
// the array is scratch (the staleness contract the fused path documents).

func stateWords(g *graph.Graph) int {
	e, v, d := g.NumEdges(), g.NumVariables(), g.D()
	return 2*e + 3*e*d + v*d
}

func appendState(dst []byte, g *graph.Graph) []byte {
	dst = exchange.AppendF64s(dst, g.Rho)
	dst = exchange.AppendF64s(dst, g.Alpha)
	dst = exchange.AppendF64s(dst, g.X)
	dst = exchange.AppendF64s(dst, g.U)
	dst = exchange.AppendF64s(dst, g.N)
	return exchange.AppendF64s(dst, g.Z)
}

// payloadCursor decodes a raw-doubles payload as consecutive array
// segments (each take is one exchange.CopyF64s over its window; the
// caller validates the total length up front).
type payloadCursor struct {
	payload []byte
	off     int
}

func (c *payloadCursor) take(dst []float64) {
	exchange.CopyF64s(dst, c.payload[c.off*8:(c.off+len(dst))*8])
	c.off += len(dst)
}

func installState(g *graph.Graph, payload []byte) error {
	if len(payload) != stateWords(g)*8 {
		return fmt.Errorf("shard: state payload %d bytes, want %d", len(payload), stateWords(g)*8)
	}
	cur := payloadCursor{payload: payload}
	for _, arr := range [][]float64{g.Rho, g.Alpha, g.X, g.U, g.N, g.Z} {
		cur.take(arr)
	}
	return nil
}

// The block's answer (FrameUp), one frame per worker per Iter. It opens
// with upStatsWords little-endian int64 words of statistics: the
// block's five phase nanos, sync wait and boundary-z nanos, then the
// worker's bytes moved, wire bytes and data frames since the session
// started (every byte counted at its sender, so the coordinator's sum
// across workers is total bytes moved). The owned state follows as raw
// doubles: X and U over the shard's owned edge runs, then Z over its
// owned variables (appendOwnedVars order), then — when the block
// requested a zPrev capture (wireIter.ZPrev) — the owned z as of the
// block's second-to-last iteration, same variable order. N is never
// uploaded: the n-update is the pure identity n = z - u, so the
// coordinator recomputes it from the X/U/Z it just installed
// (admm.UpdateNRange), bit-identical to the workers' own sweep. Both
// ends derive the layout from the same partition.

// upStatsWords is the length of an Up frame's statistics header.
const upStatsWords = int(admm.NumPhases) + 5

// blockReport is a worker's account of a block — what an Up frame says
// besides the state: its timings of the block and its cumulative
// data-plane counters (BytesMoved, WireBytes, Frames; in-process, none).
type blockReport struct {
	tm workerTimings
	ex exchange.Stats
}

// words lists the header's words in wire order.
func (r *blockReport) words() [upStatsWords]*int64 {
	var w [upStatsWords]*int64
	for p := range r.tm.phaseNanos {
		w[p] = &r.tm.phaseNanos[p]
	}
	copy(w[admm.NumPhases:], []*int64{&r.tm.syncWait, &r.tm.boundaryZ, &r.ex.BytesMoved, &r.ex.WireBytes, &r.ex.Frames})
	return w
}

func upWords(lp *localPlan, d int, zprev bool) int {
	n := upStatsWords + 2*lp.ownedEdgeCount()*d + lp.ownedVarCount()*d
	if zprev {
		n += lp.ownedVarCount() * d
	}
	return n
}

// appendUp encodes the Up payload; zprev is the worker's captured owned
// z in appendOwnedVars order (nil when the block did not request it).
func appendUp(dst []byte, rep *blockReport, g *graph.Graph, lp *localPlan, ownedVars []int, zprev []float64) []byte {
	for _, w := range rep.words() {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(*w))
	}
	d := g.D()
	for _, arr := range [][]float64{g.X, g.U} {
		for _, r := range lp.edgeRuns {
			dst = exchange.AppendF64s(dst, arr[r.Lo*d:r.Hi*d])
		}
	}
	for _, v := range ownedVars {
		dst = exchange.AppendF64s(dst, g.Z[v*d:(v+1)*d])
	}
	return exchange.AppendF64s(dst, zprev)
}

// installUp checks the Up payload's length and header (no negative
// block time, no counter below rep, the worker's previous report), then
// decodes the header into rep and the state into g; zPrev, when non-nil,
// is the coordinator's full-length zPrev array, into which the trailing
// capture segment is scattered at the owned variables' offsets.
func installUp(rep *blockReport, g *graph.Graph, lp *localPlan, ownedVars []int, payload []byte, zPrev []float64) error {
	d := g.D()
	if want := upWords(lp, d, zPrev != nil) * 8; len(payload) != want {
		return fmt.Errorf("shard: up payload %d bytes, want %d", len(payload), want)
	}
	var next blockReport
	prev := rep.words()
	for i, w := range next.words() {
		if *w = int64(binary.LittleEndian.Uint64(payload[i*8:])); *w < 0 || i >= upStatsWords-3 && *w < *prev[i] {
			return fmt.Errorf("shard: up header word %d is %d, previous %d", i, *w, *prev[i])
		}
	}
	*rep = next
	cur := payloadCursor{payload: payload, off: upStatsWords}
	for _, arr := range [][]float64{g.X, g.U} {
		for _, r := range lp.edgeRuns {
			cur.take(arr[r.Lo*d : r.Hi*d])
		}
	}
	for _, v := range ownedVars {
		cur.take(g.Z[v*d : (v+1)*d])
	}
	if zPrev != nil {
		for _, v := range ownedVars {
			cur.take(zPrev[v*d : (v+1)*d])
		}
	}
	return nil
}
