package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admm"
	"repro/internal/exchange"
	"repro/internal/graph"
	"repro/internal/mpc"
)

var update = flag.Bool("update", false, "rewrite testdata/session.golden from this run")

// frameNames names the kinds a session transcript shows.
var frameNames = map[byte]string{
	exchange.FrameCfg:   "Cfg",
	exchange.FrameReady: "Ready",
	exchange.FrameState: "State",
	exchange.FrameIter:  "Iter",
	exchange.FrameUp:    "Up",
	exchange.FrameTick:  "Tick",
	exchange.FrameBye:   "Bye",
	exchange.FrameErr:   "Err",
}

// TestSessionGolden records the control streams of one checked
// adaptive mpc solve (k=8) over two workers with their caches off, one
// line per frame in the order the worker saw it, and compares the
// transcript with testdata/session.golden. Each line has the direction,
// the kind and the payload length. Control frames add their JSON with
// the session id and the peer addrs masked, and a masked frame's length
// is masked too. State and Up add an FNV-64a digest of their payload;
// an Up's digest skips its statistics header, which holds timings.
// Rewrite the file with
//
//	go test ./internal/shard -run TestSessionGolden -update
func TestSessionGolden(t *testing.T) {
	_, _, streams := tappedSolve(t, goldenProblem, buildMPC, goldenOptions())

	var got bytes.Buffer
	for w, s := range streams {
		fmt.Fprintf(&got, "worker %d\n", w)
		for _, tf := range s.all {
			got.WriteString(transcriptLine(t, tf))
		}
	}
	path := filepath.Join("testdata", "session.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("session transcript differs from %s (rewrite it with -update if the change is intended):\n--- got\n%s--- want\n%s", path, got.Bytes(), want)
	}
}

// The golden session's problem and Run options.
var goldenProblem = admm.ProblemRef{Workload: "mpc", Spec: []byte(`{"k":8}`)}

func goldenOptions() admm.Options {
	return admm.Options{MaxIter: 60, AbsTol: 1e-9, RelTol: 1e-9, CheckEvery: 10, Adapt: &admm.AdaptConfig{Mu: 2, Tau: 2}}
}

// buildMPC builds the mpc workload from its spec JSON, zero-initialized.
func buildMPC(spec []byte) (*graph.Graph, error) {
	var s mpc.Spec
	if err := json.Unmarshal(spec, &s); err != nil {
		return nil, err
	}
	p, err := mpc.FromSpec(s)
	if err != nil {
		return nil, err
	}
	p.Graph.InitZero()
	return p.Graph, nil
}

// transcriptLine renders one tapped frame.
func transcriptLine(t testing.TB, tf tappedFrame) string {
	t.Helper()
	dir := "down"
	if tf.up {
		dir = "up  "
	}
	f := tf.f
	name, ok := frameNames[f.Kind]
	if !ok {
		name = "kind"
	}
	line := fmt.Sprintf("%s %s(%d)", dir, name, f.Kind)
	switch f.Kind {
	case exchange.FrameState, exchange.FrameUp:
		state := f.Payload
		if f.Kind == exchange.FrameUp {
			state = state[upStatsWords*8:]
		}
		h := fnv.New64a()
		h.Write(state)
		line += fmt.Sprintf(" %d fnv64a:%016x", len(f.Payload), h.Sum64())
	default:
		js, masked := maskedJSON(t, f.Payload)
		if masked {
			line += " *"
		} else {
			line += fmt.Sprintf(" %d", len(f.Payload))
		}
		if js != "" {
			line += " " + js
		}
	}
	return line + "\n"
}

// maskedJSON re-encodes a control payload with its keys sorted and the
// session id and peer addrs, which differ from run to run, masked; it
// reports whether it masked any. A payload that is not a JSON object
// is quoted.
func maskedJSON(t testing.TB, payload []byte) (js string, masked bool) {
	t.Helper()
	if len(payload) == 0 {
		return "", false
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(payload, &m); err != nil {
		return fmt.Sprintf("%q", payload), false
	}
	for _, k := range []string{"session", "peers"} {
		if _, ok := m[k]; ok {
			m[k] = json.RawMessage(`"*"`)
			masked = true
		}
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), masked
}

// Op codes of a FuzzRemoteSession input: four bytes per op, [code, at,
// x, y]; at&1 picks the worker and at>>1 the frame of its replay.
const (
	rsTick   = iota // insert a Tick {peer int8(x), y/32 bounds} before the frame; x 0x7f: y%32 bytes of junk
	rsKind          // the frame's kind becomes x
	rsLength        // the frame's length prefix becomes x<<(8*(y%4))
	rsResize        // the payload grows by 8x bytes or, y odd, shrinks to x/256 of itself
	rsFlip          // payload byte x/256 of the way in flips by y|1
	rsField         // JSON field x&15 (hit included) gets value x>>4 (y for a number)
	rsErr           // the frame becomes an Err
	rsStall         // the worker falls silent before the frame
	rsHangUp        // the worker hangs up before the frame
	rsNumOps
)

// scriptedWorker is one worker's side of a replayed session: its
// encoded frames, of which it sends the first cut, then falls silent or
// hangs up.
type scriptedWorker struct {
	frames [][]byte
	cut    int
	hangUp bool
}

// FuzzRemoteSession replays the worker side of testdata/session.golden
// — each worker's Ready and Ups, recorded from a live session whose
// transcript must match the golden's — against a real Remote running
// the golden's checked adaptive solve, with the fuzzer's ops applied:
// Ticks inserted (before Ready too), a frame's kind, declared length,
// payload size, a payload byte or a Ready JSON field changed, a frame
// replaced by an Err, a worker falling silent or hanging up part way.
// Under a shrunk liveness rule, nothing may panic, NewRemote and every
// RunBlock must return within three bounds, the heap may grow by at
// most 16 bytes per byte the workers sent plus 256 KiB, and a replay
// changed by nothing but Ticks saying a worker computes must end with
// Z bit-equal to Serial.
func FuzzRemoteSession(f *testing.F) {
	g, _, streams := tappedSolve(f, goldenProblem, buildMPC, goldenOptions())
	serialZ := g.Z
	golden, err := os.ReadFile(filepath.Join("testdata", "session.golden"))
	if err != nil {
		f.Fatal(err)
	}
	var recorded bytes.Buffer
	base := make([][][]byte, len(streams))
	for w, s := range streams {
		fmt.Fprintf(&recorded, "worker %d\n", w)
		for _, tf := range s.all {
			if tf.f.Kind == exchange.FrameTick {
				continue
			}
			if tf.up {
				base[w] = append(base[w], exchange.AppendFrame(nil, tf.f.Kind, tf.f.Seq, tf.f.Payload))
			}
			recorded.WriteString(transcriptLine(f, tf))
		}
	}
	if !bytes.Equal(recorded.Bytes(), golden) {
		f.Fatalf("the recorded session differs from testdata/session.golden:\n%s", recorded.Bytes())
	}

	const bound = 200 * time.Millisecond
	shrinkLiveness(f, bound/10, bound)
	op := func(code, at, x, y byte) []byte { return []byte{code, at, x, y} }
	seq := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	f.Add([]byte{})
	// Ticks saying each worker computes, before Ready and before an Up.
	f.Add(seq(op(rsTick, 0, 0xff, 3), op(rsTick, 1, 0xff, 200), op(rsTick, 5, 0xff, 40)))
	// Ticks naming the worker itself, a peer out of range, junk.
	f.Add(seq(op(rsTick, 0, 0, 0)))
	f.Add(seq(op(rsTick, 3, 7, 1)))
	f.Add(seq(op(rsTick, 1, 0x7f, 9)))
	// Ready claims a state hit, another graph, another manifest.
	f.Add(seq(op(rsField, 0, 0x20, 0)))
	f.Add(seq(op(rsField, 1, 0x02, 99)))
	f.Add(seq(op(rsField, 0, 0x44, 0)))
	// A busy refusal in place of Ready; an Err in place of an Up.
	f.Add(seq(op(rsErr, 1, 0, 0)))
	f.Add(seq(op(rsErr, 6, 1, 0)))
	// The retired Done kind, a truncated Up, a grown one, a flipped
	// header word.
	f.Add(seq(op(rsKind, 2, 16, 0)))
	f.Add(seq(op(rsResize, 4, 128, 1)))
	f.Add(seq(op(rsResize, 5, 3, 0)))
	f.Add(seq(op(rsFlip, 2, 1, 0x80)))
	// An Up declaring MaxFrameLen, and one declaring more.
	f.Add(seq(op(rsLength, 4, 0x10, 3)))
	f.Add(seq(op(rsLength, 3, 0xff, 3)))
	// Silence before Ready, before an Up; a hang-up after Ready.
	f.Add(seq(op(rsStall, 1, 0, 0)))
	f.Add(seq(op(rsStall, 8, 0, 0)))
	f.Add(seq(op(rsHangUp, 2, 0, 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		workers := make([]scriptedWorker, len(base))
		for w := range workers {
			workers[w] = scriptedWorker{frames: append([][]byte(nil), base[w]...), cut: len(base[w])}
		}
		onlyTicks := true
		const maxOps = 16
		for k := 0; k+4 <= len(data) && k < 4*maxOps; k += 4 {
			code, at, x, y := data[k]%rsNumOps, data[k+1], data[k+2], data[k+3]
			sw := &workers[at&1]
			i := int(at>>1) % len(sw.frames)
			onlyTicks = onlyTicks && code == rsTick && int8(x) == -1
			sw.apply(code, i, x, y, bound)
		}

		// The fuzzing engine allocates on other goroutines of this
		// process, so a run is charged the smaller of two.
		grown, sent := uint64(1<<62), 0
		for range 2 {
			g, err := buildMPC(goldenProblem.Spec)
			if err != nil {
				t.Fatal(err)
			}
			var a uint64
			a, sent, err = replaySession(t, workers, g, bound)
			grown = min(grown, a)
			if !onlyTicks {
				continue
			}
			if err != nil {
				t.Fatalf("a replay changed only by computing Ticks failed: %v", err)
			}
			for i := range serialZ {
				if math.Float64bits(g.Z[i]) != math.Float64bits(serialZ[i]) {
					t.Fatalf("a replay changed only by computing Ticks diverged from serial at Z[%d]", i)
				}
			}
		}
		if limit := 16*uint64(sent) + 256<<10; grown > limit {
			t.Fatalf("a session of %d worker bytes allocated %d, want at most %d", sent, grown, limit)
		}
	})
}

// apply makes one FuzzRemoteSession op on frame i.
func (sw *scriptedWorker) apply(code byte, i int, x, y byte, bound time.Duration) {
	frame := sw.frames[i]
	kind, payload := frame[4], frame[9:]
	set := func(kind byte, payload []byte) { sw.frames[i] = exchange.AppendFrame(nil, kind, 0, payload) }
	switch code {
	case rsTick:
		tick := appendTick(nil, int(int8(x)), time.Duration(y)*bound/32)
		if x == 0x7f {
			tick = bytes.Repeat([]byte{y}, int(y%32))
		}
		sw.frames = slices.Insert(sw.frames, i, exchange.AppendFrame(nil, exchange.FrameTick, 0, tick))
		if i < sw.cut {
			sw.cut++
		}
	case rsKind:
		set(x, payload)
	case rsLength:
		frame = slices.Clone(frame)
		binary.LittleEndian.PutUint32(frame, uint32(x)<<(8*(y%4)))
		sw.frames[i] = frame
	case rsResize:
		if y&1 != 0 {
			set(kind, payload[:len(payload)*int(x)/256])
		} else {
			set(kind, append(slices.Clone(payload), make([]byte, 8*int(x))...))
		}
	case rsFlip:
		if len(payload) > 0 {
			p := slices.Clone(payload)
			p[len(p)*int(x)/256] ^= y | 1
			set(kind, p)
		}
	case rsField:
		var m map[string]any
		if json.Unmarshal(payload, &m) != nil || m == nil {
			return
		}
		keys := slices.Sorted(maps.Keys(m))
		if !slices.Contains(keys, "hit") {
			keys = slices.Insert(keys, 0, "hit")
		}
		m[keys[int(x&15)%len(keys)]] = []any{int(y), -int(y) - 1, CacheState, CacheGraph, "deadbeef", nil}[int(x>>4)%6]
		p, _ := json.Marshal(m)
		set(kind, p)
	case rsErr:
		set(exchange.FrameErr, []byte([]string{"worker busy with another session", "boom", strings.Repeat("e", 64*int(y))}[x%3]))
	case rsStall, rsHangUp:
		if i <= sw.cut {
			sw.cut, sw.hangUp = i, code == rsHangUp
		}
	}
}

// timedBlocks is a Remote that records how long each RunBlock took.
type timedBlocks struct {
	*Remote
	took *[]time.Duration
}

func (r timedBlocks) RunBlock(g *graph.Graph, edit admm.Edit, iters int, zPrev []float64, phaseNanos *[admm.NumPhases]int64) error {
	start := time.Now()
	err := r.Remote.RunBlock(g, edit, iters, zPrev, phaseNanos)
	*r.took = append(*r.took, time.Since(start))
	return err
}

// replaySession serves each scripted worker on a loopback listener and
// runs the golden's solve on g over them. It returns the heap growth of
// NewRemote and Run, the bytes the workers sent, and the solve's error;
// NewRemote and every RunBlock must return within three bounds.
func replaySession(t *testing.T, workers []scriptedWorker, g *graph.Graph, bound time.Duration) (grown uint64, sent int, err error) {
	addrs := make([]string, len(workers))
	var wg sync.WaitGroup
	defer wg.Wait()
	for w, sw := range workers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[w] = "tcp:" + ln.Addr().String()
		stream := bytes.Join(sw.frames[:sw.cut], nil)
		sent += len(stream)
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			conn.Write(stream)
			if !sw.hangUp {
				io.Copy(io.Discard, conn) // until the coordinator hangs up
			}
		}()
	}
	spec := admm.ExecutorSpec{Kind: admm.ExecSharded, Transport: admm.TransportSockets, Addrs: addrs, Problem: &goldenProblem}
	var took []time.Duration
	done := make(chan error, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	go func() {
		start := time.Now()
		r, err := NewRemote(context.Background(), spec, g)
		took = append(took, time.Since(start))
		if err != nil {
			done <- err
			return
		}
		defer r.Close()
		opts := goldenOptions()
		opts.Backend = timedBlocks{r, &took}
		_, err = admm.Run(g, opts)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(30 * bound):
		t.Fatal("the session did not end")
	}
	runtime.ReadMemStats(&after)
	for k, d := range took {
		if d > 3*bound {
			t.Fatalf("call %d (0 is NewRemote, then each RunBlock) took %v, want at most %v", k, d, 3*bound)
		}
	}
	return after.TotalAlloc - before.TotalAlloc, sent, err
}
