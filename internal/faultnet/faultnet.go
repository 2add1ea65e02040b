// Package faultnet injects deterministic, scripted faults into
// net.Conn streams: refused connections, added latency, hard cuts after
// a byte or frame budget, and silent stalls. It is the harness the
// transport hardening in internal/shard is proven against — every
// failure scenario a test wants ("kill the mesh at frame 3", "accept
// and never answer") is written down as a Plan and replayed exactly.
//
// Determinism is by construction, not by seeding: a Script maps the
// accept index of a connection to its Plan, and a Plan's triggers count
// bytes and frames actually moved, so the same session against the same
// script fails at the same point every run. Frame counting understands
// the length-prefixed codec of internal/exchange (a 4-byte little-endian
// length prefix counting everything after itself), which lets cuts land
// exactly on frame boundaries — the interesting failure points of the
// shard control and mesh protocols.
//
// Wrap a listener before handing it to shard.ServeWorker:
//
//	ln, _ := shard.ListenAddr(addr)
//	fln := faultnet.WrapListener(ln, faultnet.PlanAt(0, faultnet.Plan{
//		Out: faultnet.Cut{AfterFrames: 2}, // sever after the 2nd frame sent
//	}))
//	go shard.ServeWorker(fln, opts)
package faultnet

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"sync"
	"time"
)

// ErrCut is returned by Read/Write on a connection a Plan has severed.
var ErrCut = errors.New("faultnet: connection cut by plan")

// Cut triggers a fault in one direction of a connection once a byte or
// frame budget is exhausted. The zero value never triggers. When both
// budgets are set, whichever is reached first fires. AfterBytes = N
// delivers exactly N bytes and then faults; AfterFrames = K delivers
// exactly K complete frames (the cut lands on the frame boundary) and
// then faults.
type Cut struct {
	AfterBytes  int
	AfterFrames int
	// Stall, when set, blocks instead of severing: the connection stays
	// open but no further bytes move in this direction until the
	// connection is closed or a deadline expires — an unresponsive peer
	// rather than a dead one.
	Stall bool
}

// Plan scripts the faults of one connection. The zero value is a
// transparent pass-through.
type Plan struct {
	// Refuse drops the connection at accept time — the dialer sees an
	// immediately-closed stream (the observable shape of a refused or
	// crashed endpoint for a framed protocol).
	Refuse bool
	// Delay is added latency: each Read and Write sleeps this long
	// before moving bytes.
	Delay time.Duration
	// WriteDelay is write-side-only latency: each Write sleeps this
	// long before moving bytes while reads pass through untouched — a
	// one-way link delay that a sender pushing frames from a dedicated
	// goroutine can hide behind compute (what the sockets transport's
	// send-before-interior-compute order is for).
	WriteDelay time.Duration
	// WriteBytesPerSec, when > 0, is the link's bandwidth term: each
	// Write additionally sleeps len(p)/rate. Together with WriteDelay
	// this models a latency+bandwidth link — the fixed term is what
	// sending before interior compute hides, the size term scales with
	// the boundary rows.
	WriteBytesPerSec int
	// In faults bytes the wrapped endpoint reads; Out faults bytes it
	// writes.
	In, Out Cut
}

// linkTime is the bandwidth term of the plan's simulated link: the
// time n bytes occupy a link limited to WriteBytesPerSec.
func (p Plan) linkTime(n int) time.Duration {
	if p.WriteBytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(p.WriteBytesPerSec) * float64(time.Second))
}

// Script assigns the Plan for the i-th accepted connection (0-based,
// in accept order). Indexes beyond the scripted range should return the
// zero Plan.
type Script func(i int) Plan

// PlanAt scripts plan for accept index i and pass-through elsewhere.
func PlanAt(i int, plan Plan) Script {
	return func(j int) Plan {
		if j == i {
			return plan
		}
		return Plan{}
	}
}

// Plans scripts plans[i] per accept index and pass-through beyond.
func Plans(plans ...Plan) Script {
	return func(i int) Plan {
		if i < len(plans) {
			return plans[i]
		}
		return Plan{}
	}
}

// RefuseAll scripts every connection refused — a reachable address
// behind which nothing answers.
func RefuseAll() Script {
	return func(int) Plan { return Plan{Refuse: true} }
}

// frameCounter tracks frame boundaries of the length-prefixed codec: a
// 4-byte little-endian length prefix counting everything after itself.
type frameCounter struct {
	hdr    [4]byte
	have   int // header bytes collected
	remain int // body bytes left in the current frame
	frames int
}

// feedUntil advances the counter over p, stopping once `limit` complete
// frames have been seen (0 = no limit). It returns the bytes consumed
// and whether the limit was hit exactly at that offset.
func (fc *frameCounter) feedUntil(p []byte, limit int) (consumed int, hit bool) {
	for len(p) > 0 {
		if limit > 0 && fc.frames >= limit {
			return consumed, true
		}
		if fc.remain == 0 {
			n := copy(fc.hdr[fc.have:], p)
			fc.have += n
			p = p[n:]
			consumed += n
			if fc.have == 4 {
				fc.have = 0
				fc.remain = int(binary.LittleEndian.Uint32(fc.hdr[:]))
				if fc.remain == 0 {
					fc.frames++
				}
			}
			continue
		}
		n := len(p)
		if n > fc.remain {
			n = fc.remain
		}
		fc.remain -= n
		p = p[n:]
		consumed += n
		if fc.remain == 0 {
			fc.frames++
		}
	}
	return consumed, limit > 0 && fc.frames >= limit
}

// dirState is one direction's cut trigger and counters.
type dirState struct {
	cut     Cut
	fc      frameCounter
	bytes   int64
	tripped bool
}

// admit consumes up to len(p) bytes against the trigger, returning how
// many may pass and whether the trigger fired at that offset.
func (d *dirState) admit(p []byte) (keep int, trip bool) {
	keep = len(p)
	if d.cut.AfterBytes > 0 {
		if rem := d.cut.AfterBytes - int(d.bytes); rem <= keep {
			keep, trip = rem, true
		}
	}
	if d.cut.AfterFrames > 0 && d.fc.frames < d.cut.AfterFrames {
		n, hit := d.fc.feedUntil(p[:keep], d.cut.AfterFrames)
		if hit {
			keep, trip = n, true
		}
	} else {
		d.fc.feedUntil(p[:keep], 0)
	}
	d.bytes += int64(keep)
	return keep, trip
}

// deadlineVar mirrors a connection deadline so stalled operations can
// still expire the way net.Conn deadlines do.
type deadlineVar struct {
	mu sync.Mutex
	t  time.Time
}

func (d *deadlineVar) set(t time.Time) {
	d.mu.Lock()
	d.t = t
	d.mu.Unlock()
}

func (d *deadlineVar) get() time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.t
}

// Conn wraps a net.Conn with a Plan. Reads and writes pass through
// until a trigger fires; a severing cut closes the underlying
// connection (both the local endpoint and the remote peer observe the
// failure), a stall blocks until the connection closes or its deadline
// expires.
type Conn struct {
	inner net.Conn
	plan  Plan

	closed    chan struct{}
	closeOnce sync.Once

	rd, wd deadlineVar

	mu  sync.Mutex
	in  dirState
	out dirState
}

// WrapConn applies a plan to an established connection.
func WrapConn(inner net.Conn, plan Plan) *Conn {
	return &Conn{
		inner:  inner,
		plan:   plan,
		closed: make(chan struct{}),
		in:     dirState{cut: plan.In},
		out:    dirState{cut: plan.Out},
	}
}

// sever closes the underlying connection so both sides observe the cut.
func (c *Conn) sever() { c.inner.Close() }

// stallWait blocks until the connection closes or the mirrored deadline
// expires, polling the deadline so SetDeadline during a stall still
// interrupts it (the net.Conn contract).
func (c *Conn) stallWait(dl *deadlineVar) error {
	for {
		select {
		case <-c.closed:
			return net.ErrClosed
		case <-time.After(2 * time.Millisecond):
			if t := dl.get(); !t.IsZero() && time.Now().After(t) {
				return os.ErrDeadlineExceeded
			}
		}
	}
}

// faultErr is what an operation returns once its direction tripped.
func (c *Conn) faultErr(cut Cut, dl *deadlineVar) error {
	if cut.Stall {
		return c.stallWait(dl)
	}
	return ErrCut
}

func (c *Conn) delay() {
	c.sleep(c.plan.Delay)
}

func (c *Conn) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	select {
	case <-c.closed:
	case <-time.After(d):
	}
}

// Read implements net.Conn. A severing In cut delivers the admitted
// prefix and closes the connection; a stalling one delivers the prefix
// and blocks subsequent reads.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	tripped := c.in.tripped
	c.mu.Unlock()
	if tripped {
		return 0, c.faultErr(c.plan.In, &c.rd)
	}
	c.delay()
	n, err := c.inner.Read(p)
	if n > 0 {
		c.mu.Lock()
		keep, trip := c.in.admit(p[:n])
		if trip {
			c.in.tripped = true
		}
		c.mu.Unlock()
		if trip {
			if !c.plan.In.Stall {
				c.sever()
			}
			if keep == 0 {
				return 0, c.faultErr(c.plan.In, &c.rd)
			}
			return keep, nil
		}
	}
	return n, err
}

// Write implements net.Conn. A severing Out cut writes the admitted
// prefix and closes the connection; a stalling one writes the prefix
// and blocks.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	tripped := c.out.tripped
	c.mu.Unlock()
	if tripped {
		return 0, c.faultErr(c.plan.Out, &c.wd)
	}
	c.delay()
	c.sleep(c.plan.WriteDelay)
	c.sleep(c.plan.linkTime(len(p)))
	c.mu.Lock()
	keep, trip := c.out.admit(p)
	if trip {
		c.out.tripped = true
	}
	c.mu.Unlock()
	n, err := c.inner.Write(p[:keep])
	if err != nil {
		return n, err
	}
	if trip {
		if !c.plan.Out.Stall {
			c.sever()
		}
		if n < len(p) {
			return n, c.faultErr(c.plan.Out, &c.wd)
		}
	}
	return n, nil
}

// Close implements net.Conn; it also releases any stalled operations.
func (c *Conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.closed)
		err = c.inner.Close()
	})
	return err
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.rd.set(t)
	c.wd.set(t)
	return c.inner.SetDeadline(t)
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.rd.set(t)
	return c.inner.SetReadDeadline(t)
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.wd.set(t)
	return c.inner.SetWriteDeadline(t)
}

// BytesIn reports bytes delivered to Read so far.
func (c *Conn) BytesIn() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.in.bytes
}

// BytesOut reports bytes admitted to Write so far.
func (c *Conn) BytesOut() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.bytes
}

// FramesIn reports complete frames delivered to Read so far.
func (c *Conn) FramesIn() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.in.fc.frames
}

// FramesOut reports complete frames admitted to Write so far.
func (c *Conn) FramesOut() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.fc.frames
}

// Tripped reports whether either direction's cut has fired.
func (c *Conn) Tripped() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.in.tripped || c.out.tripped
}

// Listener wraps a net.Listener, applying script(i) to the i-th
// accepted connection. Refused plans close the connection inside Accept
// and move on to the next one, so the accepting server never sees them.
type Listener struct {
	inner  net.Listener
	script Script

	mu       sync.Mutex
	accepted int
	refused  int
	conns    []*Conn
}

// WrapListener scripts faults onto ln's accepted connections. A nil
// script passes every connection through untouched.
func WrapListener(ln net.Listener, script Script) *Listener {
	return &Listener{inner: ln, script: script}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		conn, err := l.inner.Accept()
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		i := l.accepted
		l.accepted++
		l.mu.Unlock()
		var plan Plan
		if l.script != nil {
			plan = l.script(i)
		}
		if plan.Refuse {
			conn.Close()
			l.mu.Lock()
			l.refused++
			l.mu.Unlock()
			continue
		}
		fc := WrapConn(conn, plan)
		l.mu.Lock()
		l.conns = append(l.conns, fc)
		l.mu.Unlock()
		return fc, nil
	}
}

// Close implements net.Listener; it also closes every accepted
// connection, releasing any operation a stall plan is blocking.
func (l *Listener) Close() error {
	err := l.inner.Close()
	l.mu.Lock()
	conns := append([]*Conn(nil), l.conns...)
	l.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return err
}

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return l.inner.Addr() }

// Accepted reports connections seen so far, including refused ones.
func (l *Listener) Accepted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.accepted
}

// Refused reports connections dropped by Refuse plans.
func (l *Listener) Refused() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.refused
}

// Conns snapshots the served (non-refused) connections in accept order;
// tests use the per-connection byte/frame counters of a clean run to
// enumerate the cut points for a fault matrix.
func (l *Listener) Conns() []*Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*Conn(nil), l.conns...)
}

var (
	_ net.Conn     = (*Conn)(nil)
	_ net.Listener = (*Listener)(nil)
)
