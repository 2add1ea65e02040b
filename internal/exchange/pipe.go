package exchange

import (
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
)

// bufferedPipe is an in-memory unidirectional byte stream: writes append
// to an elastic buffer and never block, reads wait until data arrives.
// It is the loopback transport behind NewLoopback — the full frame codec
// without sockets, and (because writes cannot block) immune to the
// head-to-head write deadlock real sockets avoid via kernel buffering.
// A reader that finds the pipe empty waits like a barrier waiter does
// (sched.SpinThenPark): the peer's frame is usually a few yields away, and a
// futex wake per frame costs more than a loopback round is worth.
// The mutex gives receipt of a frame a happens-before edge after its
// send, which is what the in-process messaged exchanger relies on in
// place of barrier crossings.
type bufferedPipe struct {
	mu   sync.Mutex
	cond *sync.Cond
	buf  []byte
	off  int // read offset into buf

	// readable is what a waiting reader spins on without the lock: the
	// unread byte count, plus pipeClosed once Close ran. Nonzero means
	// Read will not wait. Written only under mu.
	readable atomic.Int64
}

const pipeClosed = 1 << 62

func (p *bufferedPipe) closed() bool { return p.readable.Load() >= pipeClosed }

func newBufferedPipe() *bufferedPipe {
	p := &bufferedPipe{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *bufferedPipe) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed() {
		return 0, io.ErrClosedPipe
	}
	// Compact once the reader has drained everything, so the buffer is
	// reused instead of growing across rounds.
	if p.off == len(p.buf) {
		p.buf = p.buf[:0]
		p.off = 0
	}
	p.buf = append(p.buf, b...)
	p.readable.Add(int64(len(b)))
	p.cond.Broadcast()
	return len(b), nil
}

func (p *bufferedPipe) Read(b []byte) (int, error) {
	for {
		sched.SpinThenPark(p.cond, func() bool { return p.readable.Load() != 0 })
		p.mu.Lock()
		if p.off < len(p.buf) {
			n := copy(b, p.buf[p.off:])
			p.off += n
			p.readable.Add(int64(-n))
			p.mu.Unlock()
			return n, nil
		}
		closed := p.closed()
		p.mu.Unlock()
		if closed {
			return 0, io.EOF
		}
		// Another reader drained the bytes this one was woken for.
	}
}

func (p *bufferedPipe) Close() error {
	p.mu.Lock()
	if !p.closed() {
		p.readable.Add(pipeClosed)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	return nil
}

// duplexEnd pairs one read pipe with one write pipe into a duplex
// stream (what each end of a loopback "connection" sees).
type duplexEnd struct {
	r *bufferedPipe
	w *bufferedPipe
}

func (d duplexEnd) Read(b []byte) (int, error)  { return d.r.Read(b) }
func (d duplexEnd) Write(b []byte) (int, error) { return d.w.Write(b) }
func (d duplexEnd) Close() error {
	d.r.Close()
	d.w.Close()
	return nil
}

// loopbackMesh builds the full duplex mesh for k in-process workers:
// mesh[i][j] is worker i's stream to worker j (nil on the diagonal).
func loopbackMesh(k int) [][]io.ReadWriteCloser {
	mesh := make([][]io.ReadWriteCloser, k)
	for i := range mesh {
		mesh[i] = make([]io.ReadWriteCloser, k)
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			ab, ba := newBufferedPipe(), newBufferedPipe()
			mesh[i][j] = duplexEnd{r: ba, w: ab}
			mesh[j][i] = duplexEnd{r: ab, w: ba}
		}
	}
	return mesh
}
