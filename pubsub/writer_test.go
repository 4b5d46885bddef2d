package pubsub

// Port-writer tests: the coalescing writer run against a counting
// net.Conn over net.Pipe, whose writes block until the other end
// reads — so frames can be queued while the writer is provably stuck
// inside a write.

import (
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"probsum/internal/broker"
	"probsum/internal/interval"
	"probsum/internal/obs"
	"probsum/internal/store"
	"probsum/internal/subscription"
)

// countingConn counts Write calls and announces each one on entered
// (when set) before it blocks in the pipe.
type countingConn struct {
	net.Conn
	writes  atomic.Int64
	entered chan struct{}
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	if c.entered != nil {
		select {
		case c.entered <- struct{}{}:
		default:
		}
	}
	return c.Conn.Write(p)
}

// writerRig is one tcpServer reduced to what runWriter touches, with a
// single peer port whose connection is the writer end of a pipe.
type writerRig struct {
	s     *tcpServer
	p     *tcpPort
	conn  *countingConn
	far   net.Conn      // the reading end
	downs chan string   // peer-down hook calls
	done  chan struct{} // closed when the writer exits
}

func newWriterRig(t *testing.T, queue int) *writerRig {
	t.Helper()
	b, err := broker.New("B1", store.PolicyPairwise)
	if err != nil {
		t.Fatal(err)
	}
	near, far := net.Pipe()
	r := &writerRig{
		conn:  &countingConn{Conn: near, entered: make(chan struct{}, 1)},
		far:   far,
		downs: make(chan string, 4), // room to observe a repeated call rather than block it
		done:  make(chan struct{}),
	}
	r.s = &tcpServer{
		b:        b,
		reg:      obs.NewRegistry(obs.NewFlightRecorder(16, time.Now)),
		stopping: make(chan struct{}),
	}
	r.s.hooks.down = func(peer string) { r.downs <- peer }
	r.p = &tcpPort{
		name:  "B2",
		peer:  true,
		conn:  r.conn,
		ch:    make(chan wireItem, queue),
		dead:  make(chan struct{}),
		stats: r.s.reg.Link("B2"),
	}
	t.Cleanup(func() { far.Close(); near.Close() })
	return r
}

func (r *writerRig) start() {
	r.s.writerWg.Add(1)
	go func() {
		r.s.runWriter(r.p)
		close(r.done)
	}()
}

// awaitExit fails unless the writer goroutine has returned within d.
func (r *writerRig) awaitExit(t *testing.T, d time.Duration) {
	t.Helper()
	select {
	case <-r.done:
	case <-time.After(d):
		t.Fatal("writer did not exit")
	}
}

func pubItem(i int) wireItem { return paddedPubItem(i, 0) }

// paddedPubItem is pubItem with pad bytes appended to its PubID.
func paddedPubItem(i, pad int) wireItem {
	return wireItem{msg: broker.Message{
		Kind:  broker.MsgPublish,
		PubID: fmt.Sprintf("p%d", i) + strings.Repeat("x", pad),
		Pub:   subscription.NewPublication(int64(i), int64(2*i)),
	}}
}

// readFrames decodes n binary frames from the reading end.
func readFrames(t *testing.T, conn net.Conn, n int) []broker.Message {
	t.Helper()
	fr := newFrameReader(conn)
	fr.binaryOnly = true
	out := make([]broker.Message, 0, n)
	for len(out) < n {
		var f Frame
		if err := fr.read(&f); err != nil {
			t.Fatalf("frame %d: %v", len(out), err)
		}
		out = append(out, *f.Msg)
	}
	return out
}

// TestWriterCoalescesQueuedFrames queues frames while the writer is
// blocked in its first write: they must arrive intact and in order,
// and all of them in the one write that follows.
func TestWriterCoalescesQueuedFrames(t *testing.T) {
	const frames = 100
	r := newWriterRig(t, frames)
	r.p.ch <- pubItem(0)
	r.start()
	<-r.conn.entered // the writer is inside Write, blocked on the pipe
	for i := 1; i < frames; i++ {
		r.p.ch <- pubItem(i)
	}
	got := readFrames(t, r.far, frames)
	for i, m := range got {
		want := pubItem(i).msg
		if m.Kind != want.Kind || m.PubID != want.PubID ||
			m.Pub.Values[0] != want.Pub.Values[0] || m.Pub.Values[1] != want.Pub.Values[1] {
			t.Fatalf("frame %d = %+v, want %+v", i, m, want)
		}
	}
	// One write for frame 0, one for the 99 queued behind it.
	if w := r.conn.writes.Load(); w != 2 {
		t.Fatalf("%d frames took %d writes, want 2", frames, w)
	}
	if w := r.p.stats.Snapshot().Writes; w != 2 {
		t.Fatalf("link write counter = %d, want 2", w)
	}
	close(r.p.ch)
	r.awaitExit(t, 2*time.Second)
}

// TestWriterOversizedFrame sends one frame larger than the coalescing
// cap between two small ones: all three arrive intact and in order.
func TestWriterOversizedFrame(t *testing.T) {
	r := newWriterRig(t, 8)
	subs := make([]broker.BatchSub, 6000)
	for i := range subs {
		subs[i] = broker.BatchSub{
			SubID: fmt.Sprintf("s%d", i),
			Sub:   subscription.New(interval.New(int64(i), int64(i)+1000000), interval.New(0, 1<<40)),
		}
	}
	big := wireItem{msg: broker.Message{Kind: broker.MsgSubscribeBatch, Subs: subs}}
	if data, err := encode(nil, big); err != nil || len(data) <= maxWriteCoalesce {
		t.Fatalf("big frame is %d bytes (err %v), want more than %d", len(data), err, maxWriteCoalesce)
	}
	r.p.ch <- pubItem(1)
	r.p.ch <- big
	r.p.ch <- pubItem(2)
	r.start()
	got := readFrames(t, r.far, 3)
	if got[0].PubID != "p1" || got[2].PubID != "p2" {
		t.Fatalf("small frames = %q, %q", got[0].PubID, got[2].PubID)
	}
	if got[1].Kind != broker.MsgSubscribeBatch || len(got[1].Subs) != len(subs) {
		t.Fatalf("big frame = kind %v with %d subs, want %d", got[1].Kind, len(got[1].Subs), len(subs))
	}
	for i, it := range got[1].Subs {
		if it.SubID != subs[i].SubID || !it.Sub.Equal(subs[i].Sub) {
			t.Fatalf("sub %d = %+v, want %+v", i, it, subs[i])
		}
	}
	close(r.p.ch)
	r.awaitExit(t, 2*time.Second)
}

// TestWriterPeerLostMidDrain breaks the connection while frames are
// still queued — more than one write's worth — so the writer must
// stop, kill the port, and report the peer down exactly once.
func TestWriterPeerLostMidDrain(t *testing.T) {
	const frames = 50
	r := newWriterRig(t, frames)
	r.p.ch <- pubItem(0)
	r.start()
	<-r.conn.entered
	for i := 1; i < frames; i++ {
		r.p.ch <- paddedPubItem(i, 4096) // 49 × 4 KiB: over the cap
	}
	readFrames(t, r.far, 1)
	r.far.Close() // the next write fails
	r.awaitExit(t, 2*time.Second)

	select {
	case <-r.p.dead:
	default:
		t.Fatal("port not killed after a failed write")
	}
	select {
	case peer := <-r.downs:
		if peer != "B2" {
			t.Fatalf("peer-down for %q, want B2", peer)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("peer-down hook never fired")
	}
	downs := 0
	for _, ev := range r.s.reg.Flight().Events() {
		if ev.Kind == "peer_down" {
			downs++
		}
	}
	if downs != 1 {
		t.Fatalf("peer_down recorded %d times, want 1", downs)
	}
	if len(r.p.ch) == 0 {
		t.Fatal("queue drained: the writer went on writing after the failure")
	}
	select {
	case peer := <-r.downs:
		t.Fatalf("second peer-down for %q", peer)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestWriterStopsWhenKilled kills the port while the writer is blocked
// in a write with frames queued behind it: the writer exits once that
// write returns, without writing the rest, and a killed port (a
// replaced connection) is not reported as a lost peer.
func TestWriterStopsWhenKilled(t *testing.T) {
	const frames = 50
	r := newWriterRig(t, frames)
	r.p.ch <- pubItem(0)
	r.start()
	<-r.conn.entered
	for i := 1; i < frames; i++ {
		r.p.ch <- pubItem(i)
	}
	r.p.kill()
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := r.far.Read(buf); err != nil {
				return
			}
		}
	}()
	r.awaitExit(t, 2*time.Second)
	if w := r.conn.writes.Load(); w != 1 {
		t.Fatalf("killed writer made %d writes, want 1", w)
	}
	if len(r.p.ch) == 0 {
		t.Fatal("queue drained: the killed writer went on writing")
	}
	select {
	case peer := <-r.downs:
		t.Fatalf("peer-down fired for a killed port (%q)", peer)
	case <-time.After(50 * time.Millisecond):
	}
}
