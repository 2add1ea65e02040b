package exchange

import (
	"bytes"
	"testing"
)

// FuzzExchangeFrameDecode pins the decoder's defensive contract:
// whatever bytes arrive — truncated frames, hostile lengths, garbage —
// ReadFrame must return an error or a well-formed frame, never panic
// and never allocate beyond the length bound. Every decoded frame must
// re-encode to the bytes it was decoded from (the codec is a
// bijection on valid streams). Each payload's whole doubles also
// round-trip through both float row codec bodies, the one-copy form and
// the element loops, to the same bits and bytes.
func FuzzExchangeFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 0, 0, byte(FrameM), 1, 0, 0, 0})
	f.Add(AppendFrame(nil, FrameZ, 3, []byte{1, 2, 3, 4, 5, 6, 7, 8}))
	f.Add(AppendFrame(AppendFrame(nil, FrameCfg, 0, []byte(`{"worker":1}`)), FrameBye, 0, nil))
	f.Add(AppendFrame(nil, 3, 1, []byte{0x01, 1, 2, 3, 4, 5, 6, 7, 8})) // retired kind 3 (was a delta m-frame)
	f.Add(AppendFrame(nil, 4, 1, []byte{0x00}))                         // retired kind 4 (was a delta z-frame)
	f.Add([]byte{0, 0, 0, 255, 9, 9, 9, 9, 9})                          // oversized length
	f.Add([]byte{2, 0, 0, 0, 1})                                        // undersized length
	f.Add([]byte{0, 0, 0, 16, 1, 0, 0, 0, 0, 1, 2, 3, 4, 5})            // MaxFrameLen declared, 10 bytes sent
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		for {
			f, nbuf, err := ReadFrame(r, buf)
			buf = nbuf
			if err != nil {
				return
			}
			reenc := AppendFrame(nil, f.Kind, f.Seq, f.Payload)
			consumed := len(data) - r.Len()
			start := consumed - len(reenc)
			if start < 0 || !bytes.Equal(reenc, data[start:consumed]) {
				t.Fatalf("frame %+v does not re-encode to its source bytes", f)
			}
			if f64Copy {
				vals := make([]float64, len(f.Payload)/8)
				for i := range vals {
					vals[i] = F64At(f.Payload, i)
				}
				checkF64Bodies(t, "payload doubles", vals)
			}
		}
	})
}
