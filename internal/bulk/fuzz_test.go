package bulk

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/workload"
)

// FuzzBulkLineDecode drives the bulk stream's per-line admission path —
// strict envelope decode, per-record control validation, workload spec
// admission — with arbitrary bytes: no input may panic, DecodeLine must
// give exactly the request or the error text encoding/json's strict
// decoder gives (and the direct scan, whenever it takes a line, a spec
// json.Valid judges as encoding/json judges the line), any accepted line must re-encode to an envelope that
// decodes back to the same request, and any admitted spec must carry a
// usable shape key.
//
// Run as a regression suite by plain `go test` over the seed corpus;
// run `go test -fuzz=FuzzBulkLineDecode ./internal/bulk` to explore.
func FuzzBulkLineDecode(f *testing.F) {
	for _, seed := range []string{
		`{"workload":"lasso","spec":{"m":64,"lambda":0.3}}`,
		`{"id":"r1","workload":"svm","spec":{"n":24,"dim":2},"max_iter":500,"abs_tol":1e-4,"rel_tol":1e-4}`,
		`{"workload":"mpc","spec":{"k":8},"executor":{"kind":"parallel-for","workers":2}}`,
		`{"workload":"packing","spec":{"n":4,"seed":3},"executor":{"kind":"sharded","shards":2,"transport":"sockets"}}`,
		`{"workload":"lasso","spec":{"m":32},"max_iter":-5}`,
		`{"workload":"lasso","spec":{"m":32},"abs_tol":-1}`,
		`{"workload":"lasso","spec":{"m":32},"bogus":true}`,
		`{"workload":"qp","spec":{"n":4}}`,
		`{"workload":"lasso","spec":{"m":32}} trailing`,
		`{broken`,
		``,
		`null`,
		`[1,2]`,
		`"just a string"`,
		// The direct scan's refusals, each a line encoding/json decides.
		`{"workload":"mpc","spec":{"k":8},"executor":null}`,
		`{"id":null,"workload":"mpc","spec":null,"max_iter":null,"abs_tol":null}`,
		`{"workload":"mpc","workload":"lasso","spec":{"k":8}}`,
		`{"Workload":"mpc","SPEC":{"k":8},"Max_Iter":5}`,
		`{"id":"a\"b\\cA\n","workload":"mpc","spec":{"k":8}}`,
		`{"id":"é","workload":"mpc","spec":{"k":8}}`,
		"{\"id\":\"\xff\",\"workload\":\"mpc\",\"spec\":{\"k\":8}}",
		"{\"id\":\"a\tb\",\"workload\":\"mpc\",\"spec\":{\"k\":8}}",
		"{\"id\":\"a\x7fb\",\"workload\":\"mpc\",\"spec\":{\"k\":8}}",
		"{\v\"workload\":\"mpc\",\"spec\":{\"k\":8}}",
		`{"workload":"lasso","spec":{"m":32},"max_iter":1.0}`,
		`{"workload":"lasso","spec":{"m":32},"max_iter":1e3}`,
		`{"workload":"lasso","spec":{"m":32},"max_iter":9223372036854775808}`,
		`{"workload":"lasso","spec":{"m":32}}}`,
		`{"workload":"lasso","spec":{"m":32}}]`,
		`{"workload":"lasso","spec":{"m":32}}{}`,
		`{"workload":"lasso","spec":{"m":32},}`,
		`{"workload":"lasso","spec":{"m":32,}}`,
		// Numbers and framing at the edge of what the scan takes.
		`{"workload":"lasso","spec":{"m":32},"max_iter":-0,"abs_tol":-0,"rel_tol":-0.0}`,
		`{"workload":"lasso","spec":{"m":32},"max_iter":4294967297}`,
		`{"workload":"lasso","spec":{"m":32},"max_iter":-9223372036854775808}`,
		`{"workload":"lasso","spec":{"m":32},"max_iter":007}`,
		`{"workload":"lasso","spec":{"m":32},"abs_tol":01e-4}`,
		`{"workload":"lasso","spec":{"m":32},"abs_tol":1e400}`,
		`{"workload":"lasso","spec":{"m":32},"abs_tol":1e-400,"rel_tol":1.5E+2}`,
		`{"workload":"lasso","spec":{"m":32},"abs_tol":.5}`,
		`{"workload":"lasso","spec":{"m":32},"abs_tol":1.}`,
		`{"workload":"lasso","spec":{"m":32},"abs_tol":0x10}`,
		"{\"workload\":\"lasso\",\"spec\":{\"m\":32}}\r\n",
		" \t{ \"workload\" : \"lasso\" , \"spec\" : { \"m\" : 32 } }\r\n",
		`{"workload":"mpc","spec":{"k":8,"note":"}"}}`,
		`{"workload":"mpc","spec":{"k":8,"note":"\"}"}}`,
		`{"workload":"mpc","spec":{"k":[8}}}`,
		`{"workload":"mpc","spec":{"k":8}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		want, wantErr := decodeJSON(line)
		req, err := DecodeLine(line)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("line %q: DecodeLine error %v, encoding/json %v", line, err, wantErr)
		}
		if !reflect.DeepEqual(req, want) {
			t.Fatalf("line %q: DecodeLine %+v, encoding/json %+v", line, req, want)
		}
		// DecodeLine's request is the scan's whenever the scan takes the
		// line and its spec is valid, so the check above covers the
		// scan's fields; a spec json.Valid refuses is encoding/json's to
		// refuse too.
		if e, ok := scanLine(line); ok && e.validSpec() != (wantErr == nil) {
			t.Fatalf("line %q: scan took it with a valid spec %t, encoding/json error %v", line, e.validSpec(), wantErr)
		}
		if err != nil {
			return
		}
		// Round-trip: an accepted envelope re-encodes losslessly.
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
		again, err := DecodeLine(enc)
		if err != nil {
			t.Fatalf("re-encoded request %s does not decode: %v", enc, err)
		}
		if again.ID != req.ID || again.Workload != req.Workload ||
			again.MaxIter != req.MaxIter || again.AbsTol != req.AbsTol || again.RelTol != req.RelTol {
			t.Fatalf("round trip changed the request: %+v vs %+v", again, req)
		}
		// Spec admission and the request check must classify, not panic.
		adm, err := workload.Parse(req.Workload, req.Spec)
		if err != nil || workload.CheckRequest(req.Executor, req.MaxIter, req.AbsTol, req.RelTol) != nil {
			return
		}
		if adm.Key == "" || adm.Build == nil {
			t.Fatalf("admitted line %q with key %q, nil build %t", line, adm.Key, adm.Build == nil)
		}
	})
}

// TestDecodeLineTrailingData: only whitespace may follow the request
// object on a line. A stray closing bracket, a second object or text
// after it is refused on both decode paths with the text serve's
// /v1/solve gives; trailing blanks and a CRLF are not data.
func TestDecodeLineTrailingData(t *testing.T) {
	const obj = `{"workload":"lasso","spec":{"m":32}}`
	for _, tail := range []string{"}", "]", "{}", " {}", " trailing", "x"} {
		line := []byte(obj + tail)
		for name, decode := range map[string]func([]byte) (Request, error){"DecodeLine": DecodeLine, "decodeJSON": decodeJSON} {
			if _, err := decode(line); err == nil || err.Error() != "decode: trailing data after request object" {
				t.Errorf("%s(%q): error %v, want the trailing-data refusal", name, line, err)
			}
		}
	}
	for _, tail := range []string{"", " ", "\r\n", " \t\n"} {
		if req, err := DecodeLine([]byte(obj + tail)); err != nil || req.Workload != "lasso" {
			t.Errorf("DecodeLine(%q): %+v, %v; want the lasso request", obj+tail, req, err)
		}
	}
}

// mapResult is Result with its metrics as a map: the record schema
// encoding/json writes from the map of a record's metric pairs.
type mapResult struct {
	Seq        int                `json:"seq"`
	ID         string             `json:"id,omitempty"`
	Workload   string             `json:"workload,omitempty"`
	Shape      string             `json:"shape,omitempty"`
	Warm       bool               `json:"warm,omitempty"`
	Iterations int                `json:"iterations,omitempty"`
	Converged  bool               `json:"converged,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	Error      string             `json:"error,omitempty"`
}

// FuzzResultEncode pins the result encoder to json.Encoder's bytes for
// arbitrary records: the record's metrics go in as the sorted list of a
// map's pairs, and the bytes to match are encoding/json's for the same
// record with that map. The direct append must write exactly them
// whenever it takes a record, must take every record of plain strings
// and finite metrics, and must refuse the list out of order; encode
// (direct or fallback) must write them always.
//
// Run `go test -fuzz=FuzzResultEncode ./internal/bulk` to explore.
func FuzzResultEncode(f *testing.F) {
	bits := math.Float64bits
	for _, v := range []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, math.MaxFloat64, -math.MaxFloat64, 1,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-7,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e20, -1e21,
		0.1, 123456789.125, 9.288181335165291e-12, 1e-10, 1e-100,
		math.Inf(1), math.NaN(),
	} {
		f.Add(7, "r000007", "lasso", "lasso/m=32", "", true, 10, true, "objective", bits(v), "gap", bits(-v), false)
	}
	for _, s := range []string{"a<b", "a>b", "a&b", "a\u2028b\u2029", "\xff\xfe", "ctl\x01\x1f", "del\x7f", `q"b`, `b\`, "é", "\t\n"} {
		f.Add(-3, s, s, s, s, false, 0, false, s, bits(2.5), "z", bits(1e-7), false)
	}
	f.Add(1, "r1", "svm", "svm/n=24", "", false, 3, false, "same", bits(1), "same", bits(2), false)
	f.Add(0, "", "", "", "decode: json: unknown field \"bogus\"", false, 0, false, "", uint64(0), "", uint64(0), true)
	f.Fuzz(func(t *testing.T, seq int, id, name, shape, errMsg string, warm bool, iters int, conv bool,
		k1 string, v1 uint64, k2 string, v2 uint64, emptyMetrics bool) {
		want := mapResult{Seq: seq, ID: id, Workload: name, Shape: shape, Warm: warm,
			Iterations: iters, Converged: conv, Error: errMsg}
		if emptyMetrics {
			want.Metrics = map[string]float64{}
		} else if k1 != "" || k2 != "" {
			want.Metrics = map[string]float64{k1: math.Float64frombits(v1), k2: math.Float64frombits(v2)}
		}
		res := Result{Seq: seq, ID: id, Workload: name, Shape: shape, Warm: warm,
			Iterations: iters, Converged: conv, Error: errMsg}
		for _, k := range slices.Sorted(maps.Keys(want.Metrics)) {
			res.Metrics = append(res.Metrics, workload.Metric{Name: k, Value: want.Metrics[k]})
		}
		var wantBuf bytes.Buffer
		wantErr := json.NewEncoder(&wantBuf).Encode(want)

		got, ok := appendResult(nil, &res, false)
		if ok && (wantErr != nil || !bytes.Equal(got, wantBuf.Bytes())) {
			t.Fatalf("direct encode %q, json.Encoder %q (%v)", got, wantBuf.Bytes(), wantErr)
		}
		direct := plain(id) && plain(name) && plain(shape) && plain(errMsg)
		finite := true
		for _, m := range res.Metrics {
			direct = direct && plain(m.Name)
			finite = finite && !math.IsInf(m.Value, 0) && !math.IsNaN(m.Value)
		}
		if ok != (direct && finite) {
			t.Fatalf("direct encode took the record %t, want %t: %+v", ok, direct && finite, res)
		}
		// Vetted, the workload, shape and names are taken on trust: a
		// record that earns the trust encodes alike, and the id, the
		// error and the values are still checked.
		if vetted, vok := appendResult(nil, &res, true); direct && (vok != finite || vok && !bytes.Equal(vetted, got)) {
			t.Fatalf("vetted encode %q (%t), unvetted %q (%t)", vetted, vok, got, ok)
		} else if vok && !(plain(id) && plain(errMsg) && finite) {
			t.Fatalf("vetted encode took id %q, error %q, metrics %+v", id, errMsg, res.Metrics)
		}
		if wantErr != nil {
			return
		}
		if e := encode(&res, false); !bytes.Equal(e.buf.Bytes(), wantBuf.Bytes()) {
			t.Fatalf("encode %q, json.Encoder %q", e.buf.Bytes(), wantBuf.Bytes())
		}
		if len(res.Metrics) < 2 {
			return
		}
		slices.Reverse(res.Metrics)
		if _, ok := appendResult(nil, &res, false); ok {
			t.Fatalf("direct encode took the metrics out of order: %+v", res.Metrics)
		}
		if e := encode(&res, false); !bytes.Equal(e.buf.Bytes(), wantBuf.Bytes()) {
			t.Fatalf("encode of the reversed list %q, json.Encoder %q", e.buf.Bytes(), wantBuf.Bytes())
		}
	})
}
