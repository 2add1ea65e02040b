package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"strings"
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
// Session lifecycle, per solve:
//
//	coordinator -> worker i:  Cfg   {worker, shards, problem, knobs, peers}
//	worker i    -> worker j<i: Peer {from, session}      (mesh dial)
//	worker i    -> coordinator: Ready {graph shape, manifest digest}
//	coordinator -> worker i:  State {Rho|Alpha|X|U|N|Z}
//	repeat:
//	  coordinator -> worker i:  [Params {Rho|U}]  Iter {iters}
//	  ...workers exchange FrameM/FrameZ over the mesh per iteration...
//	  worker i    -> coordinator: Done {timings, bytes}  Up {owned state}
//	coordinator -> worker i:  Bye
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
	// FrameTimeoutMS, when > 0, bounds each of the worker's mid-solve
	// frame reads and writes (mesh exchange and control replies) — the
	// coordinator propagates its ExecutorSpec.FrameTimeoutMS so both
	// sides of a stalled stream give up instead of wedging.
	FrameTimeoutMS int `json:"frame_timeout_ms,omitempty"`
}

// wireCacheProbe opens a session against the worker's warm cache
// (FrameCacheProbe payload): everything wireConfig carries except the
// problem itself, which is named by Key — a digest over the ProblemRef
// and shard count. StateDigest fingerprints the exact FrameState
// payload the coordinator would push, so the worker can prove its
// cached snapshot is bit-identical before the coordinator skips the
// push. On a miss the coordinator follows with a full FrameCfg on the
// same connection; the session id and knobs must match the probe's.
type wireCacheProbe struct {
	Session     uint64 `json:"session"`
	Worker      int    `json:"worker"`
	Shards      int    `json:"shards"`
	Key         string `json:"key"`
	StateDigest string `json:"state_digest"`
	// Peers lists every worker's control endpoint, indexed by worker
	// (same contract as wireConfig.Peers).
	Peers          []string `json:"peers"`
	FrameTimeoutMS int      `json:"frame_timeout_ms,omitempty"`
}

// Warm-cache hit tiers (wireCacheAck.Hit). The empty string is a miss.
const (
	// cacheHitState: key and state digest both match — the worker
	// restored its cached snapshot; the coordinator skips Cfg, Ready
	// and the State push entirely.
	cacheHitState = "state"
	// cacheHitGraph: key matches but the state digest differs (a warm
	// start, rho adaptation, or a different initial iterate) — the
	// worker reuses the cached graph/partition/manifest but still needs
	// the State push.
	cacheHitGraph = "graph"
)

// wireCacheAck answers a cache probe (FrameCacheAck payload). On any
// hit it doubles as the Ready acknowledgment: the cached graph's shape
// and manifest digest, verified by the coordinator exactly like
// wireReady before any state is trusted.
type wireCacheAck struct {
	Hit            string `json:"hit,omitempty"`
	Functions      int    `json:"functions,omitempty"`
	Variables      int    `json:"variables,omitempty"`
	Edges          int    `json:"edges,omitempty"`
	D              int    `json:"d,omitempty"`
	ManifestDigest string `json:"manifest_digest,omitempty"`
}

// asConfig projects a probe onto the session knobs the control loop
// reads (everything but the problem itself, which a hit makes moot).
func (p wireCacheProbe) asConfig() wireConfig {
	return wireConfig{
		Session:        p.Session,
		Worker:         p.Worker,
		Shards:         p.Shards,
		Peers:          p.Peers,
		FrameTimeoutMS: p.FrameTimeoutMS,
	}
}

// problemKey fingerprints what a worker must have rebuilt for a cached
// session to be reusable: the problem reference plus the shard count,
// the only knob that shapes the partition. Same key => same graph
// topology, plan, and manifest on a worker that rebuilds
// deterministically (the ack's shape+digest check still verifies,
// never trusts, this).
func problemKey(p *admm.ProblemRef, shards int) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|", p.Workload, shards)
	h.Write(p.Spec)
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

// wireReady acknowledges a config (FrameReady payload): the rebuilt
// graph's shape and the worker's boundary-manifest digest, which the
// coordinator verifies against its own before any state moves.
type wireReady struct {
	Functions      int    `json:"functions"`
	Variables      int    `json:"variables"`
	Edges          int    `json:"edges"`
	D              int    `json:"d"`
	ManifestDigest string `json:"manifest_digest"`
}

// wireIter commands one block of iterations (FrameIter payload). ZPrev
// asks the worker to capture its owned z after iteration Iters-1 and
// append it to the block's state upload — the coordinator assembles the
// captures into the zPrev array its dual-residual computation needs,
// instead of splitting the block in two just to copy z mid-block.
type wireIter struct {
	Iters int  `json:"iters"`
	ZPrev bool `json:"zprev,omitempty"`
}

// wirePong answers a FramePing health probe: whether a session is
// running and how many have completed since the worker started.
type wirePong struct {
	Active   bool `json:"active"`
	Sessions int  `json:"sessions"`
}

// wireDone reports a finished block (FrameDone payload). PhaseNanos,
// SyncWaitNanos and BoundaryZNanos are this block's values; BytesMoved
// and Frames are the worker's cumulative data-plane counters since the
// session started (every byte counted at its sender, so the
// coordinator's sum across workers is total bytes moved).
type wireDone struct {
	PhaseNanos     [admm.NumPhases]int64 `json:"phase_nanos"`
	SyncWaitNanos  int64                 `json:"sync_wait_nanos"`
	BoundaryZNanos int64                 `json:"boundary_z_nanos"`
	BytesMoved     int64                 `json:"bytes_moved"`
	WireBytes      int64                 `json:"wire_bytes"`
	Frames         int64                 `json:"frames"`
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

// readFrameKind reads one frame and requires the given kind; a FrameErr
// is surfaced as the remote side's error message.
func readFrameKind(r io.Reader, buf []byte, kind byte) (exchange.Frame, []byte, error) {
	f, buf, err := exchange.ReadFrame(r, buf)
	if err != nil {
		return f, buf, err
	}
	if f.Kind == exchange.FrameErr {
		return f, buf, &remoteError{msg: string(f.Payload)}
	}
	if f.Kind != kind {
		return f, buf, fmt.Errorf("shard: unexpected frame kind %d, want %d", f.Kind, kind)
	}
	return f, buf, nil
}

// decodeJSONFrame strictly decodes a control payload.
func decodeJSONFrame(f exchange.Frame, into any) error {
	dec := json.NewDecoder(bytes.NewReader(f.Payload))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// Default transport deadlines; every one of them is overridable per
// solve via ExecutorSpec (dial_timeout_ms etc.) and per process via the
// -dial-timeout/-handshake-timeout CLI flags.
const (
	// DefaultDialTimeout bounds control and mesh connection
	// establishment.
	DefaultDialTimeout = 10 * time.Second
	// DefaultHandshakeTimeout bounds each handshake frame exchange
	// (problem build + partition + mesh happen between Cfg and Ready).
	DefaultHandshakeTimeout = 30 * time.Second
	// DefaultDialAttempts is the dial+handshake retry budget.
	DefaultDialAttempts = 3
)

// SplitAddr parses a worker endpoint into a network and address for
// net.Dial/net.Listen: "unix:/path" and "tcp:host:port" are explicit;
// a bare string containing a path separator is a unix socket path,
// anything else a TCP host:port.
func SplitAddr(addr string) (network, address string) {
	switch {
	case strings.HasPrefix(addr, "unix:"):
		return "unix", strings.TrimPrefix(addr, "unix:")
	case strings.HasPrefix(addr, "tcp:"):
		return "tcp", strings.TrimPrefix(addr, "tcp:")
	case strings.ContainsAny(addr, "/\\"):
		return "unix", addr
	default:
		return "tcp", addr
	}
}

// DialAddr connects to a worker endpoint (see SplitAddr) with the
// default dial timeout.
func DialAddr(addr string) (net.Conn, error) {
	return DialAddrTimeout(addr, DefaultDialTimeout)
}

// DialAddrTimeout connects to a worker endpoint with an explicit bound
// on connection establishment (<= 0 falls back to the default).
func DialAddrTimeout(addr string, timeout time.Duration) (net.Conn, error) {
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	network, address := SplitAddr(addr)
	return net.DialTimeout(network, address, timeout)
}

// ListenAddr listens on a worker endpoint (see SplitAddr).
func ListenAddr(addr string) (net.Listener, error) {
	network, address := SplitAddr(addr)
	return net.Listen(network, address)
}

// State payload layouts. The full down-sync (FrameState) concatenates
// Rho|Alpha|X|U|N|Z; the parameter refresh (FrameParams) Rho|U — the
// only arrays the engine mutates between Iterate calls (residual
// checks read, rho adaptation rescales Rho and U), sent only before
// blocks where Rho actually moved. M is never shipped: the workers'
// kernels form every m-contribution they read in registers, so the
// array is scratch (the staleness contract the fused path documents).

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

func paramsWords(g *graph.Graph) int { return g.NumEdges() + g.NumEdges()*g.D() }

func appendParams(dst []byte, g *graph.Graph) []byte {
	dst = exchange.AppendF64s(dst, g.Rho)
	return exchange.AppendF64s(dst, g.U)
}

func installParams(g *graph.Graph, payload []byte) error {
	if len(payload) != paramsWords(g)*8 {
		return fmt.Errorf("shard: params payload %d bytes, want %d", len(payload), paramsWords(g)*8)
	}
	cur := payloadCursor{payload: payload}
	cur.take(g.Rho)
	cur.take(g.U)
	return nil
}

// Owned-state upload (FrameUp): X and U over the shard's owned edge
// runs, then Z over its owned variables (appendOwnedVars order), then —
// when the block requested a zPrev capture (wireIter.ZPrev) — the owned
// z as of the block's second-to-last iteration, same variable order.
// N is never uploaded: the n-update is the pure identity n = z - u, so
// the coordinator recomputes it from the X/U/Z it just installed
// (admm.UpdateNRange), bit-identical to the workers' own sweep. Both
// ends derive the layout from the same partition, so the payload is
// raw doubles.

func ownedWords(lp *localPlan, d int, zprev bool) int {
	n := 2*lp.ownedEdgeCount()*d + lp.ownedVarCount()*d
	if zprev {
		n += lp.ownedVarCount() * d
	}
	return n
}

// appendOwned encodes the upload; zprev is the worker's captured owned
// z in appendOwnedVars order (nil when the block did not request it).
func appendOwned(dst []byte, g *graph.Graph, lp *localPlan, ownedVars []int, zprev []float64) []byte {
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

// installOwned decodes the upload into g; zPrev, when non-nil, is the
// coordinator's full-length zPrev array, into which the trailing
// capture segment is scattered at the owned variables' offsets.
func installOwned(g *graph.Graph, lp *localPlan, ownedVars []int, payload []byte, zPrev []float64) error {
	d := g.D()
	if want := ownedWords(lp, d, zPrev != nil) * 8; len(payload) != want {
		return fmt.Errorf("shard: owned-state payload %d bytes, want %d", len(payload), want)
	}
	cur := payloadCursor{payload: payload}
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

// meshNeeded reports whether workers i and j exchange any boundary
// state under the manifest — the condition for a mesh connection.
func meshNeeded(man *exchange.Manifest, i, j int) bool {
	k := man.Shards
	return len(man.MEdges[i*k+j]) > 0 || len(man.MEdges[j*k+i]) > 0 ||
		len(man.ZVars[i*k+j]) > 0 || len(man.ZVars[j*k+i]) > 0
}
