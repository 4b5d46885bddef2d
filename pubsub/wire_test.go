package pubsub

// Wire-level tests for the handshake and the batch frames: bursts
// reach batch admission as single calls, both ends of every connection
// must advertise the same wire version, and JSON carries the
// handshake only.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"probsum/internal/broker"
	"probsum/internal/interval"
	"probsum/internal/subscription"
)

// tile returns a small non-overlapping box so batch items never cover
// each other and all forward.
func tile(i int64) Subscription {
	return subscription.New(interval.New(i*10, i*10+5), interval.New(0, 5))
}

// TestTCPSubscribeBatchReachesTableOnce is the ISSUE 4 acceptance
// assertion: a wire SUBBATCH of N subscriptions must arrive at the
// downstream coverage table as ONE Table.SubscribeBatch call of N
// items — not N per-item admissions.
func TestTCPSubscribeBatchReachesTableOnce(t *testing.T) {
	a := listenTestBroker(t, "A", Pairwise)
	b := listenTestBroker(t, "B", Pairwise)
	if err := a.ConnectPeer("B", b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.ConnectPeer("A", a.Addr()); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	c := dialTest(t, a.Addr(), "alice")

	const n = 16
	subs := make([]BatchSub, n)
	for i := range subs {
		subs[i] = BatchSub{SubID: fmt.Sprintf("s%d", i), Sub: tile(int64(i))}
	}
	if err := c.SubscribeBatch(ctx, subs); err != nil {
		t.Fatal(err)
	}
	// The burst floods A → B as one frame; wait for B to admit it.
	waitMetric(t, b, 5*time.Second, func(m Metrics) bool { return m.SubsReceived == n })

	srvA := a.impl.(*tcpServer)
	tm, ok := srvA.b.NeighborTableMetrics("B")
	if !ok {
		t.Fatal("A has no coverage table for B")
	}
	if tm.Batches != 1 || tm.BatchItems != n {
		t.Fatalf("A→B table admissions: %d batch calls with %d items, want 1 call with %d items (metrics %+v)",
			tm.Batches, tm.BatchItems, n, tm)
	}
	if tm.Subscribes != n {
		t.Fatalf("A→B table saw %d subscribes, want %d", tm.Subscribes, n)
	}

	// The forwarded SUBBATCH must feed B's own tables as one batch
	// too (B has only neighbor A, the arrival port, so nothing is
	// admitted — assert via B's table for A staying empty and the
	// unsubscribe path instead).
	if err := c.UnsubscribeBatch(ctx, []string{"s0", "s1", "s2"}); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, b, 5*time.Second, func(m Metrics) bool { return m.SubsReceived == n }) // unchanged
	waitMetric(t, a, 5*time.Second, func(m Metrics) bool { return m.UnsubsForwarded == 3 })
	tm, _ = srvA.b.NeighborTableMetrics("B")
	if tm.Unsubscribes != 3 {
		t.Fatalf("A→B table unsubscribes = %d, want 3", tm.Unsubscribes)
	}
	if tm.Batches != 1 {
		t.Fatalf("unsubscribe burst triggered %d extra subscribe batches", tm.Batches-1)
	}
}

// TestTCPBatchCoverageWithinBurst pins the batch-admission semantics
// end to end: a burst whose first (broad) subscription covers the
// rest forwards only the broad one.
func TestTCPBatchCoverageWithinBurst(t *testing.T) {
	a := listenTestBroker(t, "A", Pairwise)
	b := listenTestBroker(t, "B", Pairwise)
	if err := a.ConnectPeer("B", b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.ConnectPeer("A", a.Addr()); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	c := dialTest(t, a.Addr(), "alice")

	subs := []BatchSub{
		{SubID: "narrow1", Sub: box(40, 60, 40, 60)},
		{SubID: "broad", Sub: box(0, 100, 0, 100)},
		{SubID: "narrow2", Sub: box(10, 20, 10, 20)},
	}
	if err := c.SubscribeBatch(ctx, subs); err != nil {
		t.Fatal(err)
	}
	// Batch admission processes descending volume: broad lands active,
	// both narrows admit covered, so only broad crosses the wire.
	waitMetric(t, a, 5*time.Second, func(m Metrics) bool {
		return m.SubsReceived == 3 && m.SubsForwarded == 1 && m.SubsSuppressed == 2
	})
	waitMetric(t, b, 2*time.Second, func(m Metrics) bool { return m.SubsReceived == 1 })

	// The covered narrows still match locally: a publication inside
	// narrow1 published at B must reach the client for all covering
	// subscriptions.
	pub := dialTest(t, b.Addr(), "bob")
	if err := pub.Publish(ctx, "p1", subscription.NewPublication(50, 50)); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for i := 0; i < 2; i++ {
		n, ok := recvOne(t, c, 5*time.Second)
		if !ok {
			t.Fatalf("notification %d did not arrive (got %v)", i, got)
		}
		got[n.SubID] = true
	}
	if !got["broad"] || !got["narrow1"] {
		t.Fatalf("deliveries = %v, want broad and narrow1", got)
	}
}

// TestTCPWireVersionHandshake pins the one-version rule at every
// handshake frame. A client hello, a peer hello, a peer's ack (toward
// DialPeer) and a broker's ack (toward Dial) that advertise an older
// version, a newer one, or no codec field at all (a build that
// predates the field) are refused: no port is left behind, the
// refusing broker flight-records the refusal, and Dial/DialPeer return
// an error naming both versions. The current version connects.
func TestTCPWireVersionHandshake(t *testing.T) {
	current := uint8(CodecBinary5)
	versions := []struct {
		name  string
		codec uint8
	}{
		{"older", current - 1},
		{"newer", current + 1},
		{"none", 0},
		{"current", current},
	}
	sides := []struct {
		name string
		run  func(t *testing.T, codec uint8)
	}{
		{"client-hello", handshakeClientHello},
		{"peer-hello", handshakePeerHello},
		{"peer-ack", handshakePeerAck},
		{"client-ack", handshakeClientAck},
	}
	for _, side := range sides {
		for _, v := range versions {
			t.Run(side.name+"/"+v.name, func(t *testing.T) { side.run(t, v.codec) })
		}
	}
}

// rawDial opens a plain TCP connection with a generous I/O deadline.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	t.Cleanup(func() { conn.Close() })
	return conn
}

// rawAcceptor accepts one connection, reads the dialer's hello, answers
// with an ack advertising codec, and then drains the connection until
// it closes. The hello is delivered on the returned channel.
func rawAcceptor(t *testing.T, id string, codec uint8) (addr string, hellos <-chan Frame) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan Frame, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := newFrameReader(conn)
		var hello Frame
		if err := r.read(&hello); err != nil {
			return
		}
		ch <- hello
		if err := writeJSONFrame(conn, &Frame{Ack: id, Codec: codec}); err != nil {
			return
		}
		for r.read(&hello) == nil {
		}
	}()
	return ln.Addr().String(), ch
}

// readAck reads the broker's handshake answer off a raw connection and
// checks it advertises this build's version.
func readAck(t *testing.T, r *frameReader, want string) {
	t.Helper()
	var ack Frame
	if err := r.read(&ack); err != nil {
		t.Fatalf("no ack: %v", err)
	}
	if ack.Ack != want || ack.Codec != uint8(CodecBinary5) {
		t.Fatalf("ack = %+v, want ack %s with codec %d", ack, want, CodecBinary5)
	}
}

// assertNoPort fails if the server registered an outbound port.
func assertNoPort(t *testing.T, srv *tcpServer, name string) {
	t.Helper()
	srv.mu.Lock()
	_, ok := srv.ports[name]
	srv.mu.Unlock()
	if ok {
		t.Fatalf("%s registered a port for refused %s", srv.b.ID(), name)
	}
}

// assertRefusal fails unless the server flight-recorded a handshake
// refusal naming both versions.
func assertRefusal(t *testing.T, srv *tcpServer, codec uint8) {
	t.Helper()
	for _, ev := range srv.reg.Flight().Events() {
		if ev.Kind == "handshake_refused" && namesBothVersions(ev.Detail, codec) {
			return
		}
	}
	t.Fatalf("no handshake_refused event naming versions %d and %d: %v",
		codec, CodecBinary5, srv.reg.Flight().Dump())
}

func namesBothVersions(msg string, codec uint8) bool {
	return strings.Contains(msg, fmt.Sprintf("version %d,", codec)) &&
		strings.Contains(msg, fmt.Sprintf("version %d", CodecBinary5))
}

func handshakeClientHello(t *testing.T, codec uint8) {
	b := listenTestBroker(t, "B", Pairwise)
	srv := b.impl.(*tcpServer)
	conn := rawDial(t, b.Addr())
	if err := writeJSONFrame(conn, &Frame{Hello: "raw", Client: true, Codec: codec}); err != nil {
		t.Fatal(err)
	}
	r := newFrameReader(conn)
	readAck(t, r, "B")
	if codec != uint8(CodecBinary5) {
		var fr Frame
		if err := r.read(&fr); err == nil {
			t.Fatalf("refused connection stayed open: read %+v", fr)
		}
		assertNoPort(t, srv, "raw")
		assertRefusal(t, srv, codec)
		return
	}
	sub, err := MarshalFrame(CodecBinary5, nil, &Frame{Msg: &broker.Message{Kind: broker.MsgSubscribe, SubID: "s1", Sub: box(0, 10, 0, 10)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(sub); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, b, 5*time.Second, func(m Metrics) bool { return m.SubsReceived == 1 })
}

func handshakePeerHello(t *testing.T, codec uint8) {
	b := listenTestBroker(t, "B", Pairwise)
	srv := b.impl.(*tcpServer)
	conn := rawDial(t, b.Addr())
	if err := writeJSONFrame(conn, &Frame{Hello: "P", Codec: codec, Cluster: 1}); err != nil {
		t.Fatal(err)
	}
	r := newFrameReader(conn)
	readAck(t, r, "B")
	_, linked := b.NeighborTableMetrics("P")
	if codec != uint8(CodecBinary5) {
		var fr Frame
		if err := r.read(&fr); err == nil {
			t.Fatalf("refused connection stayed open: read %+v", fr)
		}
		if linked {
			t.Fatal("refused peer was registered as a neighbor")
		}
		assertNoPort(t, srv, "P")
		assertRefusal(t, srv, codec)
		return
	}
	if !linked {
		t.Fatal("current-version peer hello did not register the neighbor")
	}
	if got := b.PeerClusterVersion("P"); got != 1 {
		t.Fatalf("peer cluster version = %d, want 1", got)
	}
}

func handshakePeerAck(t *testing.T, codec uint8) {
	a := listenTestBroker(t, "A", Pairwise)
	srv := a.impl.(*tcpServer)
	addr, hellos := rawAcceptor(t, "P", codec)
	established, err := a.DialPeer("P", addr)
	if hello := <-hellos; hello.Hello != "A" || hello.Codec != uint8(CodecBinary5) {
		t.Fatalf("DialPeer hello = %+v", hello)
	}
	if codec != uint8(CodecBinary5) {
		if err == nil || established {
			t.Fatalf("DialPeer against a version-%d ack: established=%v err=%v", codec, established, err)
		}
		if !namesBothVersions(err.Error(), codec) {
			t.Fatalf("DialPeer error %q does not name versions %d and %d", err, codec, CodecBinary5)
		}
		assertNoPort(t, srv, "P")
		assertRefusal(t, srv, codec)
		return
	}
	if err != nil || !established {
		t.Fatalf("DialPeer against a current ack: established=%v err=%v", established, err)
	}
	srv.mu.Lock()
	_, ok := srv.ports["P"]
	srv.mu.Unlock()
	if !ok {
		t.Fatal("established link has no port")
	}
}

func handshakeClientAck(t *testing.T, codec uint8) {
	addr, hellos := rawAcceptor(t, "B", codec)
	c, err := Dial(testCtx(t), addr, "alice")
	if hello := <-hellos; hello.Hello != "alice" || !hello.Client || hello.Codec != uint8(CodecBinary5) {
		t.Fatalf("Dial hello = %+v", hello)
	}
	if codec != uint8(CodecBinary5) {
		if err == nil {
			c.Close()
			t.Fatalf("Dial accepted a version-%d ack", codec)
		}
		if !namesBothVersions(err.Error(), codec) {
			t.Fatalf("Dial error %q does not name versions %d and %d", err, codec, CodecBinary5)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

// TestTCPDialWaitsForAck pins that Dial's ack wait is bounded by its
// context: a listener that never answers the hello fails the dial when
// the context ends.
func TestTCPDialWaitsForAck(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(io.Discard, conn) // read the hello, never answer
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	c, err := Dial(ctx, ln.Addr().String(), "alice")
	if err == nil {
		c.Close()
		t.Fatal("Dial succeeded without an ack")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Dial error = %v, want the context deadline", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Dial returned after %v, long past its 200ms context", d)
	}
}

// TestTCPJSONMessageAfterHandshake pins the choice for JSON message
// frames after the handshake: they are a protocol error, not ignored.
// The broker closes a client connection that sends one and applies
// nothing; a client whose broker sends one ends its notification
// stream.
func TestTCPJSONMessageAfterHandshake(t *testing.T) {
	b := listenTestBroker(t, "B", Pairwise)
	conn := rawDial(t, b.Addr())
	if err := writeJSONFrame(conn, &Frame{Hello: "raw", Client: true, Codec: uint8(CodecBinary5)}); err != nil {
		t.Fatal(err)
	}
	r := newFrameReader(conn)
	readAck(t, r, "B")
	if err := writeJSONFrame(conn, &Frame{Msg: &broker.Message{Kind: broker.MsgSubscribe, SubID: "s1", Sub: box(0, 10, 0, 10)}}); err != nil {
		t.Fatal(err)
	}
	var fr Frame
	if err := r.read(&fr); err == nil {
		t.Fatalf("broker kept the connection open after a JSON message: read %+v", fr)
	}
	if m := b.Metrics(); m.SubsReceived != 0 {
		t.Fatalf("broker applied a JSON message frame: %+v", m)
	}

	// Client side: a broker that acks, then pushes a JSON notification.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var hello Frame
		if newFrameReader(conn).read(&hello) != nil {
			return
		}
		writeJSONFrame(conn, &Frame{Ack: "B", Codec: uint8(CodecBinary5)})
		writeJSONFrame(conn, &Frame{Msg: &broker.Message{Kind: broker.MsgNotify, SubID: "s1", PubID: "p1"}})
		io.Copy(io.Discard, conn)
	}()
	c, err := Dial(testCtx(t), ln.Addr().String(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	select {
	case n, ok := <-c.Notifications():
		if ok {
			t.Fatalf("client delivered a JSON notification: %+v", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client stream stayed open after a JSON frame")
	}
}

// TestTCPPeerLinkSyncIsBinary pins that a dialed peer port writes
// binary from its first frame: the link-sync SUBBATCH that follows the
// ack carries the backfilled roots as a binary frame.
func TestTCPPeerLinkSyncIsBinary(t *testing.T) {
	a := listenTestBroker(t, "A", Pairwise)
	ctx := testCtx(t)
	c := dialTest(t, a.Addr(), "alice")
	if err := c.Subscribe(ctx, "s1", box(0, 50, 0, 50)); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, a, 5*time.Second, func(m Metrics) bool { return m.SubsReceived == 1 })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	first := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			first <- err
			return
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		r := newFrameReader(conn)
		var fr Frame
		if err := r.read(&fr); err != nil {
			first <- err
			return
		}
		if err := writeJSONFrame(conn, &Frame{Ack: "P", Codec: uint8(CodecBinary5)}); err != nil {
			first <- err
			return
		}
		b, err := r.r.Peek(1)
		if err != nil {
			first <- err
			return
		}
		if b[0] != binMagic {
			first <- fmt.Errorf("first frame after the ack starts with %#x, want the binary magic", b[0])
			return
		}
		r.binaryOnly = true
		if err := r.read(&fr); err != nil {
			first <- err
			return
		}
		if fr.Msg.Kind != broker.MsgSubscribeBatch || len(fr.Msg.Subs) != 1 || fr.Msg.Subs[0].SubID != "s1" {
			first <- fmt.Errorf("first frame = %+v, want the link-sync SUBBATCH of s1", fr.Msg)
			return
		}
		first <- nil
	}()
	if err := a.ConnectPeer("P", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
}

// TestTCPPublishBatchDelivery drives Client.PublishBatch end to end
// over a two-broker overlay: one PUBBATCH frame in, every publication
// delivered to the matching subscriber on the far side.
func TestTCPPublishBatchDelivery(t *testing.T) {
	a := listenTestBroker(t, "A", Pairwise)
	b := listenTestBroker(t, "B", Pairwise)
	if err := a.ConnectPeer("B", b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.ConnectPeer("A", a.Addr()); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	sub := dialTest(t, b.Addr(), "alice")
	if err := sub.Subscribe(ctx, "s1", box(0, 100, 0, 100)); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, a, 5*time.Second, func(m Metrics) bool { return m.SubsReceived == 1 })

	pub := dialTest(t, a.Addr(), "bob")
	const n = 5
	batch := make([]BatchPub, n)
	for i := range batch {
		batch[i] = BatchPub{PubID: fmt.Sprintf("p%d", i), Pub: subscription.NewPublication(int64(i*10), int64(i*10))}
	}
	if err := pub.PublishBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for i := 0; i < n; i++ {
		nt, ok := recvOne(t, sub, 5*time.Second)
		if !ok {
			t.Fatalf("notification %d missing (got %v)", i, got)
		}
		if nt.SubID != "s1" {
			t.Fatalf("notification under %s", nt.SubID)
		}
		got[nt.PubID] = true
	}
	for i := 0; i < n; i++ {
		if !got[fmt.Sprintf("p%d", i)] {
			t.Fatalf("p%d not delivered: %v", i, got)
		}
	}
	if m := a.Metrics(); m.PubsReceived != n || m.PubsForwarded != n {
		t.Fatalf("A publish metrics %+v, want %d received and forwarded", m, n)
	}
}

// TestSimPublishBatch pins Client.PublishBatch on the simulated
// transport: one batch message, every publication delivered.
func TestSimPublishBatch(t *testing.T) {
	tr, err := NewSimTransport(Pairwise, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	defer tr.Shutdown(ctx)
	if _, err := tr.AddBroker("B1"); err != nil {
		t.Fatal(err)
	}
	sub, err := tr.Open(ctx, "alice", "B1")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := tr.Open(ctx, "bob", "B1")
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Subscribe(ctx, "s1", box(0, 100, 0, 100)); err != nil {
		t.Fatal(err)
	}
	if err := pub.PublishBatch(ctx, []BatchPub{
		{PubID: "p0", Pub: subscription.NewPublication(1, 1)},
		{PubID: "p1", Pub: subscription.NewPublication(2, 2)},
		{PubID: "p2", Pub: subscription.NewPublication(3, 3)},
	}); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for i := 0; i < 3; i++ {
		n, ok := recvOne(t, sub, 2*time.Second)
		if !ok {
			t.Fatalf("sim notification %d missing", i)
		}
		got[n.PubID] = true
	}
	if !got["p0"] || !got["p1"] || !got["p2"] {
		t.Fatalf("sim deliveries = %v", got)
	}
}

// TestTCPControlFramesGatedOnCluster pins the transport's control-frame
// gate: toward a peer whose handshake advertised no cluster layer a
// control frame is refused and counted, routing frames still flow, and
// once the peer's own hello advertises a cluster layer the gate opens.
func TestTCPControlFramesGatedOnCluster(t *testing.T) {
	a := listenTestBroker(t, "A", Pairwise)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	frames := make(chan broker.MsgKind, 16)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := newFrameReader(conn)
		var fr Frame
		if r.read(&fr) != nil || writeJSONFrame(conn, &Frame{Ack: "P", Codec: uint8(CodecBinary5)}) != nil {
			return
		}
		r.binaryOnly = true
		for r.read(&fr) == nil {
			frames <- fr.Msg.Kind
		}
	}()
	if _, err := a.DialPeer("P", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if a.SendPeer("P", broker.Message{Kind: broker.MsgPing, Seq: 1}) {
		t.Fatal("ping toward a peer without a cluster layer was accepted")
	}
	if got := a.Metrics().ControlDropped; got != 1 {
		t.Fatalf("ControlDropped = %d, want 1", got)
	}
	if !a.SendPeer("P", broker.Message{Kind: broker.MsgUnsubscribe, SubID: "x"}) {
		t.Fatal("routing frame toward the peer was refused")
	}

	// The peer's own hello advertises a cluster layer: pings now pass.
	conn := rawDial(t, a.Addr())
	if err := writeJSONFrame(conn, &Frame{Hello: "P", Codec: uint8(CodecBinary5), Cluster: 1}); err != nil {
		t.Fatal(err)
	}
	readAck(t, newFrameReader(conn), "A")
	if !a.SendPeer("P", broker.Message{Kind: broker.MsgPing, Seq: 2}) {
		t.Fatal("ping refused after the peer advertised a cluster layer")
	}
	for _, want := range []broker.MsgKind{broker.MsgUnsubscribe, broker.MsgPing} {
		select {
		case k := <-frames:
			if k != want {
				t.Fatalf("peer received %v, want %v", k, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("peer never received %v", want)
		}
	}
}
