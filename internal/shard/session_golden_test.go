package shard

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

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
	build := func(spec []byte) (*graph.Graph, error) {
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
	_, _, streams := tappedSolve(t, admm.ProblemRef{Workload: "mpc", Spec: []byte(`{"k":8}`)}, build,
		admm.Options{MaxIter: 60, AbsTol: 1e-9, RelTol: 1e-9, CheckEvery: 10, Adapt: &admm.AdaptConfig{Mu: 2, Tau: 2}})

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

// transcriptLine renders one tapped frame.
func transcriptLine(t *testing.T, tf tappedFrame) string {
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
func maskedJSON(t *testing.T, payload []byte) (js string, masked bool) {
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
