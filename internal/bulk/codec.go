package bulk

import (
	"encoding/json"
	"math"
	"strconv"
)

// This file is the per-record codec's direct path: a strict scan of the
// canonical request envelope and an append of the result record. Each
// covers the common case only and reports when it does not; the caller
// then takes encoding/json, which owns every other input and writes
// every refusal text.

// envScan is a cursor over one input line.
type envScan struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *envScan) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// tok consumes the byte c after optional whitespace.
func (s *envScan) tok(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str scans a string of printable ASCII without escapes and returns its
// contents, which alias the line.
func (s *envScan) str() ([]byte, bool) {
	s.ws()
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	start := s.i + 1
	for j := start; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			s.i = j + 1
			return s.b[start:j], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// digits returns the index past the run of decimal digits at b[j:].
func digits(b []byte, j int) int {
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	return j
}

// number scans a JSON number literal and reports whether it is an
// integer literal (no fraction, no exponent).
func (s *envScan) number() (lit []byte, integer, ok bool) {
	s.ws()
	b, j := s.b, s.i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && '1' <= b[j] && b[j] <= '9':
		j = digits(b, j)
	default:
		return nil, false, false
	}
	integer = true
	if j < len(b) && b[j] == '.' {
		k := digits(b, j+1)
		if k == j+1 {
			return nil, false, false
		}
		j, integer = k, false
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := digits(b, j)
		if k == j {
			return nil, false, false
		}
		j, integer = k, false
	}
	lit, s.i = b[s.i:j], j
	return lit, integer, true
}

// integer scans an integer literal that fits an int.
func (s *envScan) integer() (int, bool) {
	lit, integer, ok := s.number()
	if !ok || !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, 0)
	return int(n), err == nil
}

// float scans a number that strconv.ParseFloat takes as a float64.
func (s *envScan) float() (float64, bool) {
	lit, _, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// object scans to the end of an object by a bracket count and returns
// its bytes, which alias the line. The count only finds the candidate
// end: whether the bytes are JSON is json.Valid's to decide.
func (s *envScan) object() ([]byte, bool) {
	s.ws()
	b := s.b
	if s.i >= len(b) || b[s.i] != '{' {
		return nil, false
	}
	depth, inStr := 0, false
	for j := s.i; j < len(b); j++ {
		c := b[j]
		if inStr {
			switch c {
			case '\\':
				j++
			case '"':
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				v := b[s.i : j+1]
				s.i = j + 1
				return v, true
			}
		}
	}
	return nil, false
}

// envelope is a canonical line's fields as scanLine found them. The
// strings and the spec alias the line, and the spec is a candidate
// object that no one has validated yet.
type envelope struct {
	id, workload, spec []byte
	maxIter            int
	absTol, relTol     float64
}

// validSpec reports whether the spec, when present, is JSON.
func (e *envelope) validSpec() bool {
	return e.spec == nil || json.Valid(e.spec)
}

// scanLine scans a canonical envelope in place: an object of the
// Request keys but executor, each spelled exactly and at most once;
// strings of printable ASCII without escapes; spec an object by its
// brackets; max_iter an integer literal that fits an int; the
// tolerances numbers ParseFloat takes; nothing but whitespace around.
// It reports false for any other line, which DecodeLine then hands to
// encoding/json. On a line scanLine takes whose spec is json.Valid,
// the two agree exactly; on one whose spec is not, encoding/json
// refuses the line.
func scanLine(line []byte) (envelope, bool) {
	s := envScan{b: line}
	var e envelope
	if !s.tok('{') {
		return envelope{}, false
	}
	if !s.tok('}') {
		var seen uint8
		for {
			key, ok := s.str()
			if !ok || !s.tok(':') {
				return envelope{}, false
			}
			var bit uint8
			switch string(key) {
			case "id":
				bit = 1
				e.id, ok = s.str()
			case "workload":
				bit = 2
				e.workload, ok = s.str()
			case "spec":
				bit = 4
				e.spec, ok = s.object()
			case "max_iter":
				bit = 8
				e.maxIter, ok = s.integer()
			case "abs_tol":
				bit = 16
				e.absTol, ok = s.float()
			case "rel_tol":
				bit = 32
				e.relTol, ok = s.float()
			default:
				return envelope{}, false
			}
			if !ok || seen&bit != 0 {
				return envelope{}, false
			}
			seen |= bit
			if s.tok('}') {
				break
			}
			if !s.tok(',') {
				return envelope{}, false
			}
		}
	}
	s.ws()
	if s.i != len(line) {
		return envelope{}, false
	}
	return e, true
}

// plain reports whether encoding/json writes str as its bytes between
// quotes: printable ASCII but the quote, the backslash and the three
// characters it escapes for HTML.
func plain(str string) bool {
	for i := 0; i < len(str); i++ {
		switch c := str[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// appendString appends a plain string, quoted.
func appendString(b []byte, str string) []byte {
	b = append(b, '"')
	b = append(b, str...)
	return append(b, '"')
}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest 'f' form, or the 'e' form below 1e-6 and from 1e21 on with a
// one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// sharedPlain reports whether the strings a record shares with every
// record of its spec are plain: the workload, the shape key and the
// metric names, which must also ascend. For a solved record of an
// admitted spec they are: the memo checks the workload and the key, and
// every workload.Problem appends its metrics under fixed names in order.
func sharedPlain(res *Result) bool {
	if !plain(res.Workload) || !plain(res.Shape) {
		return false
	}
	for i, m := range res.Metrics {
		if !plain(m.Name) || i > 0 && m.Name <= res.Metrics[i-1].Name {
			return false
		}
	}
	return true
}

// appendResult appends res and a newline as json.Encoder writes them.
// It reports false, with b's extension to be discarded, when a string
// needs escaping, a metric is not finite or the metric names are not
// strictly ascending: encoding/json owns those records. So the metrics
// go out in the list's order, which is the order of a map's keys.
//
// vetted vouches for the strings a record shares with its spec (see
// sharedPlain), as admit decides once per spec; then only the id, the
// error and the metric values are checked.
func appendResult(b []byte, res *Result, vetted bool) ([]byte, bool) {
	if !plain(res.ID) || !plain(res.Error) || !vetted && !sharedPlain(res) {
		return b, false
	}
	for _, m := range res.Metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			return b, false
		}
	}

	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(res.Seq), 10)
	if res.ID != "" {
		b = appendString(append(b, `,"id":`...), res.ID)
	}
	if res.Workload != "" {
		b = appendString(append(b, `,"workload":`...), res.Workload)
	}
	if res.Shape != "" {
		b = appendString(append(b, `,"shape":`...), res.Shape)
	}
	if res.Warm {
		b = append(b, `,"warm":true`...)
	}
	if res.Iterations != 0 {
		b = strconv.AppendInt(append(b, `,"iterations":`...), int64(res.Iterations), 10)
	}
	if res.Converged {
		b = append(b, `,"converged":true`...)
	}
	if len(res.Metrics) > 0 {
		b = append(b, `,"metrics":{`...)
		for i, m := range res.Metrics {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendFloat(append(appendString(b, m.Name), ':'), m.Value)
		}
		b = append(b, '}')
	}
	if res.Error != "" {
		b = appendString(append(b, `,"error":`...), res.Error)
	}
	return append(b, "}\n"...), true
}
