package pubsub

// TCP transport: brokers over real sockets — the deployable stack,
// built around a concurrent pipeline and the binary wire codec.
//
// # Wire protocol
//
// The first frame on any connection is a hello identifying the sender
// (and whether it is a client or a peer broker); the accepting side
// answers with an ack naming its broker. Hello and ack are
// newline-delimited JSON and both carry a `codec` field with the
// sender's wire version (CodecBinary5). The two ends must speak the
// same version: a hello or ack that advertises any other one — an
// older build, a newer one, or a build that predates the field — is
// refused, with an error naming both versions. An acceptor refusing a
// hello still sends its own ack first, so the dialer can report what
// it met, then closes the connection without registering anything.
//
// Every frame after the handshake is a binary frame (see codec.go)
// carrying one broker.Message — including the SUBBATCH/UNSUBBATCH
// bursts that feed batch admission. A JSON frame after the handshake
// is a protocol error that closes the connection. Dialers wait for
// the ack before they send anything else, so a dialed connection
// carries binary from its first message frame.
// Peer brokers hold one outbound connection per direction (A dials B
// and B dials A), so no multiplexing is needed; clients hold a single
// duplex connection on which the ack and notifications are pushed
// back.
//
// # Concurrency model
//
// The old wire server serialized every message behind one mutex. The
// pipeline here has three stages, and the serialization boundary is
// exactly the broker's own locking discipline (see internal/broker):
//
//   - one READER goroutine per inbound connection decodes frames and
//     feeds them, in connection order, into broker.Handle. Publishes
//     run under the broker's shared lock — matching proceeds
//     CONCURRENTLY across connections — while subscribes and
//     unsubscribes take the exclusive lock, keeping coverage-table
//     admission ordered (per port by the reader's sequencing, across
//     ports by the lock). A reader that finds more publish frames
//     already buffered coalesces them (up to maxPublishCoalesce) into
//     ONE HandlePublishBatch call, paying the RWMutex once per run
//     instead of once per frame at high rates.
//   - one WRITER goroutine per outbound port encodes frames from a
//     buffered queue into pooled buffers, so a slow or stalled peer
//     never blocks matching and concurrent publishes never interleave
//     frame bytes. Each write carries the frame the writer woke for
//     plus every frame already queued behind it (up to
//     maxWriteCoalesce bytes): one syscall per run instead of one per
//     frame, and no waiting for frames that have not arrived.
//   - Shutdown stops readers at a frame boundary, waits for in-flight
//     handling, then closes the writer queues so every already-queued
//     frame drains before the connections close.
//
// Per-destination delivery order is preserved end to end: a reader
// enqueues each frame's output before decoding the next, and a single
// writer drains each queue in FIFO order.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"probsum/internal/broker"
	"probsum/internal/obs"
	"probsum/internal/persist"
)

// Frame is the on-the-wire envelope of the TCP transport.
type Frame struct {
	// Hello identifies the sender on the first frame of a connection.
	Hello string `json:"hello,omitempty"`
	// Client marks a hello as coming from a client (not a broker).
	Client bool `json:"client,omitempty"`
	// Addr carries a dialing broker's own listen address so the
	// accepting side can dial back and complete the bidirectional
	// link without being configured with the peer itself (best-effort:
	// useful when the address is reachable from the acceptor).
	Addr string `json:"addr,omitempty"`
	// Ack identifies the accepting broker on its first frame back —
	// the handshake reply.
	Ack string `json:"ack,omitempty"`
	// Codec advertises, on hello and ack frames, the sender's wire
	// version. Both ends must advertise the same one.
	Codec uint8 `json:"codec,omitempty"`
	// Cluster advertises, on hello and ack frames, the cluster
	// membership protocol version the sender speaks (0 = none: such
	// peers are never sent ping/pong/gossip frames).
	Cluster uint8 `json:"cluster,omitempty"`
	// Msg carries one protocol message on subsequent frames.
	Msg *broker.Message `json:"msg,omitempty"`
}

// clusterProtoVersion is the membership protocol spoken by this build's
// cluster layer and advertised in hello/ack frames once a control
// handler is attached.
const clusterProtoVersion = 1

// TCPOption tunes the TCP transport.
type TCPOption func(*tcpConfig)

type tcpConfig struct {
	queueLen int

	dataDir      string        // durability directory ("" = in-memory only)
	syncEvery    int           // journal fsync batch (0 = BrokerJournal default)
	snapInterval time.Duration // periodic snapshot cadence (0 = 30s)
}

// WithDataDir makes the broker durable: subscriptions, port
// registrations, and the publication-dedup window are journaled to an
// append-only fsync-batched log under dir, compacted by periodic
// snapshots, and a broker restarted over the same directory replays
// itself back to its pre-crash routing state — rejoining the overlay
// without clients re-announcing anything. The digest reconciliation
// protocol then repairs whatever diverged (the unsynced log tail lost
// to the crash, peer-side changes made while down).
func WithDataDir(dir string) TCPOption {
	return func(c *tcpConfig) { c.dataDir = dir }
}

// WithJournalSync sets the journal's fsync batch: the log is forced
// to stable storage after every n-th record (1 = every record;
// default 64). Smaller n narrows the window a crash can lose at the
// price of more fsyncs on the subscribe path.
func WithJournalSync(n int) TCPOption {
	return func(c *tcpConfig) { c.syncEvery = n }
}

// WithSnapshotInterval sets the cadence of the periodic
// log-compacting snapshot (default 30s).
func WithSnapshotInterval(d time.Duration) TCPOption {
	return func(c *tcpConfig) { c.snapInterval = d }
}

// WithSendQueue sets the per-port outbound queue length (default 256
// frames). A full queue applies backpressure to the readers that are
// producing for it.
func WithSendQueue(n int) TCPOption {
	return func(c *tcpConfig) { c.queueLen = n }
}

// wireItem is one entry of a port's outbound queue: a protocol
// message, or a pre-built control frame (the handshake ack, always
// JSON).
type wireItem struct {
	msg  broker.Message
	ctrl *Frame
}

// tcpPort is one outbound destination: a connection, its writer
// goroutine's queue, and a kill switch.
type tcpPort struct {
	name string
	peer bool // a neighbor broker (as opposed to a client)
	conn net.Conn
	// cluster is the membership protocol version the destination
	// advertised; control frames (ping/pong/gossip) are dropped when
	// it is 0 — peers without a cluster layer must never see them.
	cluster atomic.Uint32
	// ch feeds the writer goroutine, the only code that writes to conn
	// once the port is registered (handshake frames are written before
	// that, or on connections that never get a port).
	ch   chan wireItem
	dead chan struct{} // closed when the port is torn down mid-stream
	once sync.Once

	// stats counts frames queued toward this destination by wire kind
	// and the writes that carried them (atomic adds — zero allocations
	// on the frame path); writeHist/clock time the encode+write stage,
	// once per write. All three are set once in addPort, before the
	// port is visible to senders.
	stats     *obs.LinkStats
	writeHist *obs.Histogram
	clock     func() time.Time
}

// maxWriteCoalesce caps the bytes one write gathers from a port's
// queue. The writer folds in only frames that are already queued — it
// never waits for more — so coalescing adds no latency; the cap bounds
// the encode buffer and how long queued frames wait behind one write.
// A single frame larger than the cap still goes out, alone.
const maxWriteCoalesce = 64 << 10

// encode appends one queue item's frame to buf. Binary frames are
// built straight from the queued message; the envelope stays on the
// stack.
func encode(buf []byte, it wireItem) ([]byte, error) {
	if it.ctrl != nil {
		return MarshalFrame(CodecJSON, buf, it.ctrl)
	}
	return appendBinaryFrame(buf, &Frame{Msg: &it.msg})
}

// writeRun encodes first and every item already queued behind it, up
// to maxWriteCoalesce bytes, into one pooled buffer and sends them in
// a single write. It reports open=false once it finds the queue closed
// (graceful shutdown: everything queued has then been written). An
// encode error still writes the frames encoded before it, then
// returns the error.
func (p *tcpPort) writeRun(first wireItem) (open bool, err error) {
	var t0 time.Time
	if p.writeHist != nil {
		t0 = p.clock()
	}
	buf := getEncBuf()
	defer putEncBuf(buf)
	data, encErr := encode((*buf)[:0], first)
	open = true
gather:
	for encErr == nil && len(data) < maxWriteCoalesce {
		select {
		case it, ok := <-p.ch:
			if !ok {
				open = false
				break gather
			}
			data, encErr = encode(data, it)
		default:
			break gather
		}
	}
	*buf = data[:0]
	if len(data) > 0 {
		_, err = p.conn.Write(data)
		p.stats.Wrote()
	}
	if p.writeHist != nil {
		p.writeHist.Observe(p.clock().Sub(t0))
	}
	if err == nil {
		err = encErr
	}
	return open, err
}

// kill marks the port dead: senders stop enqueueing and the writer
// exits without draining.
func (p *tcpPort) kill() { p.once.Do(func() { close(p.dead) }) }

// tcpServer hosts one broker behind a TCP listener.
type tcpServer struct {
	b   *broker.Broker
	ln  net.Listener
	cfg tcpConfig

	mu sync.Mutex
	// +guarded_by:mu
	ports map[string]*tcpPort
	// +guarded_by:mu
	readers map[net.Conn]struct{}
	// peerClu records, per peer broker, the cluster protocol version
	// it advertised (hello on its inbound connection, or ack on our
	// outbound one).
	// +guarded_by:mu
	peerClu map[string]uint8
	// hooks are the cluster layer's peer-link callbacks (up on an
	// established outbound link, down on a lost one). Invoked on their
	// own goroutines so a callback may dial or send without deadlocking
	// against s.mu. Events are at-least-once: a replaced connection or
	// a redial can surface spurious down/up pairs, and the membership
	// layer is expected to treat them idempotently.
	// +guarded_by:mu
	hooks struct {
		up, down func(peer string)
	}
	// clusterOn flips when a control handler attaches; hellos and acks
	// advertise the cluster protocol version only while it is set.
	clusterOn atomic.Bool

	// journal/jstore are the durability layer (nil without
	// WithDataDir); recovery holds the boot-time replay stats.
	journal  *BrokerJournal
	jstore   persist.Store
	recovery RecoveryStats
	durable  bool

	// reg is the server's observability registry; the stage histograms
	// below are cached out of it so frame paths never take its lock.
	reg      *obs.Registry
	hDecode  *obs.Histogram
	hEnqueue *obs.Histogram
	hWrite   *obs.Histogram
	obsClock func() time.Time

	stopping chan struct{} // Shutdown began: stop accepting/registering
	closed   chan struct{} // hard close: abandon queued frames

	readerWg sync.WaitGroup // accept loop + per-connection readers
	writerWg sync.WaitGroup // per-port writers
	snapWg   sync.WaitGroup // periodic snapshot loop
	shutOnce sync.Once
	shutErr  error
}

// newTCPServer starts a server for the given broker on addr.
func newTCPServer(b *broker.Broker, addr string, cfg tcpConfig) (*tcpServer, error) {
	if cfg.queueLen <= 0 {
		cfg.queueLen = 256
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pubsub: listen %s: %w", addr, err)
	}
	s := &tcpServer{
		b:        b,
		ln:       ln,
		cfg:      cfg,
		ports:    make(map[string]*tcpPort),
		readers:  make(map[net.Conn]struct{}),
		peerClu:  make(map[string]uint8),
		stopping: make(chan struct{}),
		closed:   make(chan struct{}),
	}
	s.reg = newServerRegistry(b)
	s.hDecode = s.reg.Histogram(histFrameDecode)
	s.hEnqueue = s.reg.Histogram(histFrameEnqueue)
	s.hWrite = s.reg.Histogram(histFrameWrite)
	s.obsClock = time.Now
	registerQueueDepths(s.reg, s)
	s.readerWg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// addr returns the bound listener address.
func (s *tcpServer) addr() string { return s.ln.Addr().String() }

func (s *tcpServer) metrics() Metrics { return s.b.Metrics() }

func (s *tcpServer) core() *broker.Broker { return s.b }

// errPortExists reports that a live port already serves the name.
var errPortExists = errors.New("pubsub: port already connected")

// addPort registers an outbound port and starts its writer. With
// replace=true (clients: a redial takes over the stream) any previous
// port is killed; with replace=false (peers: concurrent dials from
// ConnectPeer and the hello dial-back converge on one link) a live
// existing port wins and errPortExists is returned.
//
// Peer ports take the cluster version the peer has advertised so far
// (peerClu, possibly upgraded later by learnPeer). A non-nil ack frame
// is queued ahead of any other traffic — it enters the channel before
// the port becomes visible to senders.
func (s *tcpServer) addPort(name string, conn net.Conn, replace, peer bool, ack *Frame) (*tcpPort, error) {
	p := &tcpPort{
		name:      name,
		peer:      peer,
		conn:      conn,
		ch:        make(chan wireItem, s.cfg.queueLen),
		dead:      make(chan struct{}),
		stats:     s.reg.Link(name),
		writeHist: s.hWrite,
		clock:     s.obsClock,
	}
	if ack != nil {
		p.ch <- wireItem{ctrl: ack}
	}
	s.mu.Lock()
	select {
	case <-s.stopping:
		s.mu.Unlock()
		return nil, fmt.Errorf("pubsub: broker %s is shutting down", s.b.ID())
	default:
	}
	if peer {
		p.cluster.Store(uint32(s.peerClu[name]))
	}
	if old, ok := s.ports[name]; ok {
		if !replace {
			select {
			case <-old.dead:
				// The previous link broke; take over.
			default:
				s.mu.Unlock()
				return nil, errPortExists
			}
		}
		old.kill()
	}
	s.ports[name] = p
	// Count the writer before releasing the lock: shutdown closes the
	// registered ports' queues under the same lock, so a port is never
	// registered without its writer being awaited.
	s.writerWg.Add(1)
	s.mu.Unlock()
	go s.runWriter(p)
	return p, nil
}

// runWriter drains one port's queue onto its connection, one write
// per run of queued frames (see writeRun). A closed queue (graceful
// shutdown) is drained to the last frame; a killed port (replacement,
// encode error, hard close) exits once its current write returns.
func (s *tcpServer) runWriter(p *tcpPort) {
	defer s.writerWg.Done()
	defer p.conn.Close()
	for {
		// A kill takes precedence over a ready queue.
		select {
		case <-p.dead:
			return
		default:
		}
		select {
		case <-p.dead:
			return
		case it, ok := <-p.ch:
			if !ok {
				return
			}
			open, err := p.writeRun(it)
			if err != nil {
				// The destination vanished; message loss on broken links
				// is the lossy-environment behavior the protocol already
				// tolerates. A lost peer link is surfaced to the cluster
				// layer so its reconnect loop can engage.
				p.kill()
				if p.peer {
					s.firePeerDown(p.name)
				}
				return
			}
			if !open {
				return
			}
		}
	}
}

// firePeerUp / firePeerDown invoke the cluster layer's link hooks on
// their own goroutine (a hook may dial or send, which takes s.mu).
// Nothing fires once shutdown began.
func (s *tcpServer) firePeerUp(id string)   { s.firePeerHook(id, true) }
func (s *tcpServer) firePeerDown(id string) { s.firePeerHook(id, false) }

func (s *tcpServer) firePeerHook(id string, up bool) {
	s.mu.Lock()
	h := s.hooks.down
	if up {
		h = s.hooks.up
	}
	s.mu.Unlock()
	kind := "peer_down"
	if up {
		kind = "peer_up"
	}
	s.reg.Flight().Record(kind, s.b.ID(), id)
	if h == nil {
		return
	}
	select {
	case <-s.stopping:
		return
	default:
	}
	go h(id)
}

// setPeerHooks registers the cluster layer's link callbacks.
func (s *tcpServer) setPeerHooks(up, down func(peer string)) {
	s.mu.Lock()
	s.hooks.up, s.hooks.down = up, down
	s.mu.Unlock()
}

// setControlHandler attaches the cluster layer's control dispatcher to
// the underlying broker and turns on the cluster advertisement for
// every subsequent hello and ack.
func (s *tcpServer) setControlHandler(h broker.ControlHandler) {
	s.b.SetControlHandler(h)
	s.clusterOn.Store(h != nil)
}

// clusterVer is the cluster protocol version to advertise right now.
func (s *tcpServer) clusterVer() uint8 {
	if s.clusterOn.Load() {
		return clusterProtoVersion
	}
	return 0
}

// peerCluster reports the cluster protocol version a peer advertised.
func (s *tcpServer) peerCluster(id string) uint8 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peerClu[id]
}

// journalRef and recoveryStats expose the durability layer.
func (s *tcpServer) journalRef() *BrokerJournal           { return s.journal }
func (s *tcpServer) recoveryStats() (RecoveryStats, bool) { return s.recovery, s.durable }
func (s *tcpServer) observability() *obs.Registry         { return s.reg }

// sendPeer queues one message for a peer broker, subject to the same
// control-frame gate as broker-originated traffic. It reports whether
// a live link to the peer existed — delivery itself stays
// best-effort, like all sends.
func (s *tcpServer) sendPeer(id string, msg broker.Message) bool {
	s.mu.Lock()
	p := s.ports[id]
	s.mu.Unlock()
	if p == nil || !p.peer {
		return false
	}
	select {
	case <-p.dead:
		return false
	default:
	}
	if msg.Kind.IsControl() && p.cluster.Load() == 0 {
		// The peer has not advertised a cluster layer — it has none, or
		// it attached one after our handshake and its own hello is
		// still in flight. Count the drop so the loss is observable; if
		// a later hello reveals a cluster layer, learnPeer re-fires the
		// peer-up hook and the membership layer re-arms its probes.
		s.b.CountControlDrop()
		return false
	}
	s.sendTo(p, msg)
	return true
}

// learnPeer records the cluster protocol version a peer broker
// advertised and applies it to the live outbound port. A peer whose
// advertisement reveals a cluster layer for the first time gets the
// peer-up hook re-fired: until this moment every control frame toward
// it was dropped (the cluster gate in send and sendPeer), so the
// membership layer must restart its probe cycle now that pings can
// flow.
func (s *tcpServer) learnPeer(id string, cluster uint8) {
	s.mu.Lock()
	prevClu := s.peerClu[id]
	s.peerClu[id] = cluster
	linked := false
	if p, ok := s.ports[id]; ok {
		p.cluster.Store(uint32(cluster))
		select {
		case <-p.dead:
		default:
			linked = true
		}
	}
	s.mu.Unlock()
	if linked && prevClu == 0 && cluster != 0 {
		s.firePeerUp(id)
	}
}

// send queues one outbound message. It blocks when the destination's
// queue is full (backpressure) and drops when the destination is
// unknown, dead, or the server is hard-closing — the same
// transient-absence tolerance as the old implementation, minus its
// head-of-line blocking.
//
// Control frames (ping/pong/gossip, indirect probes, delta gossip) go
// only to peers that advertised a cluster layer; toward any other
// destination they are dropped, counted, and flight-recorded —
// membership simply does not extend to it.
func (s *tcpServer) send(o broker.Outbound) {
	s.mu.Lock()
	p := s.ports[o.To]
	s.mu.Unlock()
	if p == nil {
		return
	}
	if o.Msg.Kind.IsControl() && p.cluster.Load() == 0 {
		s.b.CountControlDrop()
		s.reg.Flight().Record("frame_drop", s.b.ID(), o.To+" "+o.Msg.Kind.String())
		return
	}
	s.sendTo(p, o.Msg)
}

// sendTo queues one message onto a resolved port.
func (s *tcpServer) sendTo(p *tcpPort, msg broker.Message) {
	p.stats.Sent(int(msg.Kind))
	t0 := s.obsClock()
	select {
	case p.ch <- wireItem{msg: msg}:
	case <-p.dead:
	case <-s.closed:
	}
	s.hEnqueue.Observe(s.obsClock().Sub(t0))
}

// dispatch runs one inbound message through the broker and fans the
// results out to the per-port queues.
func (s *tcpServer) dispatch(from string, msg broker.Message) error {
	outs, err := s.b.Handle(from, msg)
	if err != nil {
		return err
	}
	for _, o := range outs {
		s.send(o)
	}
	return nil
}

// dispatchPublishBatch runs a coalesced run of publish frames through
// the broker under ONE shared-lock acquisition and fans the results
// out in order.
func (s *tcpServer) dispatchPublishBatch(from string, msgs []broker.Message) error {
	outs, err := s.b.HandlePublishBatch(from, msgs)
	for _, o := range outs {
		s.send(o)
	}
	return err
}

// acceptLoop admits connections until the listener closes.
func (s *tcpServer) acceptLoop() {
	defer s.readerWg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.stopping:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.readerWg.Add(1)
		go s.serveConn(conn)
	}
}

// trackReader registers an inbound connection so Shutdown can stop its
// decoder at a frame boundary. Returns false when the server is
// already stopping.
func (s *tcpServer) trackReader(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.stopping:
		return false
	default:
	}
	s.readers[conn] = struct{}{}
	return true
}

func (s *tcpServer) untrackReader(conn net.Conn) {
	s.mu.Lock()
	delete(s.readers, conn)
	s.mu.Unlock()
}

// writeJSONFrame encodes one handshake frame through a pooled buffer
// and writes it in a single call.
func writeJSONFrame(conn net.Conn, fr *Frame) error {
	buf := getEncBuf()
	defer putEncBuf(buf)
	data, err := MarshalFrame(CodecJSON, (*buf)[:0], fr)
	*buf = data[:0]
	if err != nil {
		return err
	}
	_, err = conn.Write(data)
	return err
}

// maxPublishCoalesce caps how many already-buffered publish frames a
// reader folds into one HandlePublishBatch call, bounding the latency
// a coalesced run can add ahead of a queued subscribe.
const maxPublishCoalesce = 64

// serveConn reads the hello, refuses it if it advertises another wire
// version, registers the port, answers with the ack, then feeds
// messages into the dispatch pipeline, coalescing buffered publish
// runs.
func (s *tcpServer) serveConn(conn net.Conn) {
	defer s.readerWg.Done()
	reader := newFrameReader(conn)
	var hello Frame
	if err := reader.read(&hello); err != nil || hello.Hello == "" {
		conn.Close()
		return
	}
	from := hello.Hello
	ack := &Frame{Ack: s.b.ID(), Codec: uint8(CodecBinary5), Cluster: s.clusterVer()}
	if hello.Codec != uint8(CodecBinary5) {
		// Refuse before anything is registered. Our ack still goes out
		// so the remote end can name both versions in its own error.
		s.reg.Flight().Record("handshake_refused", s.b.ID(), wireVersionError(from, hello.Codec).Error())
		_ = writeJSONFrame(conn, ack) // best effort: the connection closes either way
		conn.Close()
		return
	}
	reader.binaryOnly = true
	reader.instrument(s.hDecode, s.obsClock)
	linkStats := s.reg.Link(from)

	var port *tcpPort
	if hello.Client {
		s.b.AttachClient(from)
		// The ack is queued ahead of any notification.
		p, err := s.addPort(from, conn, true, false, ack)
		if err != nil {
			conn.Close()
			return
		}
		port = p
	} else {
		// Inbound peer link: the neighbor dialed us; data frames flow
		// only inward on this connection (we reply over our own dial).
		if err := s.b.ConnectNeighbor(from); err != nil {
			conn.Close()
			return
		}
		// Whether the peer has a cluster layer governs our outbound
		// port to it.
		s.learnPeer(from, hello.Cluster)
		// Answer with the ack directly: nobody else writes on an
		// inbound peer connection, and the dialer waits for it.
		if err := writeJSONFrame(conn, ack); err != nil {
			conn.Close()
			return
		}
		// If we have no outbound channel to this neighbor yet and it
		// told us where it listens, dial back so the link becomes
		// bidirectional without explicit two-sided configuration.
		if hello.Addr != "" {
			s.mu.Lock()
			_, have := s.ports[from]
			s.mu.Unlock()
			if !have {
				go s.connectPeer(from, hello.Addr)
			}
		}
	}
	if !s.trackReader(conn) {
		if port == nil {
			conn.Close()
		}
		return
	}
	defer s.untrackReader(conn)
	if port == nil {
		// We own the close for read-only peer connections; client
		// connections are closed by their port's writer.
		defer conn.Close()
	}
	// Note: an inbound peer stream ending does NOT fire the peer-down
	// hook. Losing dial races close redundant connections as a matter
	// of course (ConnectPeer's errPortExists path), and treating those
	// closes as link loss makes membership flap through spurious
	// down→recover→re-announce cycles. The authoritative loss signals
	// are the outbound writer failing (firePeerDown in runWriter) and
	// the cluster layer's own ping timeouts.

	fail := func() {
		if port != nil {
			port.kill()
		}
	}
	var (
		fr      Frame
		pubRun  []broker.Message
		pending bool // fr holds a frame read ahead by the coalescer
	)
	for {
		if !pending {
			if err := reader.read(&fr); err != nil {
				fail()
				return
			}
		}
		pending = false
		linkStats.Recv(int(fr.Msg.Kind))
		if fr.Msg.Kind != broker.MsgPublish {
			if err := s.dispatch(from, *fr.Msg); err != nil {
				fail()
				return
			}
			continue
		}
		// Publish: fold in whatever publish frames the kernel already
		// delivered, then pay the broker's shared lock once for the
		// whole run. A buffered non-publish frame ends the run and is
		// handled on the next iteration.
		pubRun = append(pubRun[:0], *fr.Msg)
		var runErr error
		for len(pubRun) < maxPublishCoalesce {
			ok, err := reader.tryRead(&fr)
			if err != nil {
				runErr = err
				break
			}
			if !ok {
				break
			}
			if fr.Msg.Kind != broker.MsgPublish {
				pending = true
				break
			}
			linkStats.Recv(int(fr.Msg.Kind))
			pubRun = append(pubRun, *fr.Msg)
		}
		if err := s.dispatchPublishBatch(from, pubRun); err != nil {
			fail()
			return
		}
		if runErr != nil {
			fail()
			return
		}
	}
}

// connectPeer dials a neighbor broker at addr, registers the overlay
// link, and starts the outbound writer — the idempotent public form
// (dialing an already-linked peer is success).
func (s *tcpServer) connectPeer(id, addr string) error {
	_, err := s.dialPeer(id, addr)
	return err
}

// dialPeer is connectPeer reporting whether THIS call established the
// outbound link: false (with nil error) when a live port already
// existed and the new connection was discarded. The distinction
// matters to the cluster reconnect loop — a no-op dial against an
// existing connection proves nothing about the peer (the connection
// may be stalled), so treating it as a recovery would let a hung peer
// flap dead→alive forever. The link is registered only after the
// peer's ack arrived and advertised this build's wire version.
func (s *tcpServer) dialPeer(id, addr string) (bool, error) {
	conn, err := net.DialTimeout("tcp", addr, peerDialTimeout)
	if err != nil {
		return false, fmt.Errorf("pubsub: dial peer %s at %s: %w", id, addr, err)
	}
	ack, err := s.handshakePeer(conn, id)
	if err != nil {
		conn.Close()
		return false, err
	}
	s.learnPeer(id, ack.Cluster)
	if err := s.b.ConnectNeighbor(id); err != nil {
		conn.Close()
		return false, err
	}
	if _, err := s.addPort(id, conn, false, true, nil); err != nil {
		conn.Close()
		if errors.Is(err, errPortExists) {
			// A concurrent dial (ours or the peer's dial-back) already
			// established the link; connecting twice is success.
			return false, nil
		}
		return false, err
	}
	// Link sync: a freshly established (or re-established) outbound
	// link starts with ONE SUBBATCH of the coverage roots for this
	// neighbor — everything the table says the peer must know. On a
	// first-boot link the table is empty and nothing is sent; after a
	// reconnect (or toward a neighbor registered while no port
	// existed) this is the healing re-announcement: the peer drops
	// what it already knows and fills the gaps, so routing state
	// converges without any transport replaying lost frames.
	if roots := s.b.NeighborRoots(id); len(roots) > 0 {
		s.send(broker.Outbound{To: id, Msg: broker.Message{Kind: broker.MsgSubscribeBatch, Subs: roots}})
	}
	// Tell the cluster layer the link is up.
	s.firePeerUp(id)
	return true, nil
}

// handshakePeer runs the dialer's side of the handshake on a freshly
// dialed peer connection, bounded by peerDialTimeout. A refused ack is
// flight-recorded. The acceptor sends nothing after its ack, so the
// reader's read-ahead loses nothing.
func (s *tcpServer) handshakePeer(conn net.Conn, id string) (*Frame, error) {
	conn.SetDeadline(time.Now().Add(peerDialTimeout))
	defer conn.SetDeadline(time.Time{})
	hello := &Frame{Hello: s.b.ID(), Addr: s.advertiseAddr(), Codec: uint8(CodecBinary5), Cluster: s.clusterVer()}
	_, ack, err := exchangeHello(conn, hello, "peer "+id)
	if errors.Is(err, errWireVersion) {
		s.reg.Flight().Record("handshake_refused", s.b.ID(), err.Error())
	}
	return ack, err
}

// exchangeHello writes hello on a freshly dialed connection and reads
// the acceptor's ack. An ack advertising another wire version is
// refused with an error naming both versions. The returned reader,
// switched to binary frames, holds whatever the acceptor queued behind
// its ack.
func exchangeHello(conn net.Conn, hello *Frame, who string) (*frameReader, *Frame, error) {
	if err := writeJSONFrame(conn, hello); err != nil {
		return nil, nil, fmt.Errorf("pubsub: hello to %s: %w", who, err)
	}
	r := newFrameReader(conn)
	var ack Frame
	if err := r.read(&ack); err != nil {
		return nil, nil, fmt.Errorf("pubsub: ack from %s: %w", who, err)
	}
	if ack.Ack == "" {
		return nil, nil, fmt.Errorf("pubsub: %s answered the hello without an ack", who)
	}
	if ack.Codec != uint8(CodecBinary5) {
		return nil, nil, wireVersionError(who, ack.Codec)
	}
	r.binaryOnly = true
	return r, &ack, nil
}

// peerDialTimeout bounds a single peer dial attempt so a reconnect
// loop probing a dead host cannot stall for the kernel's full connect
// timeout.
const peerDialTimeout = 3 * time.Second

// advertiseAddr returns the listen address to offer peers for
// dial-back, or "" when the listener is bound to an unspecified host
// ("[::]:7001", "0.0.0.0:7001") — advertising that would make a
// remote peer dial itself. Overlays listening on wildcard addresses
// need two-sided peer configuration, exactly as before dial-back
// existed.
func (s *tcpServer) advertiseAddr() string {
	addr := s.addr()
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return ""
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		return ""
	}
	return addr
}

// closeRead shuts the read side of a connection so its decoder stops
// at the next frame boundary while queued writes still flush.
func closeRead(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseRead()
		return
	}
	conn.Close()
}

// shutdown gracefully stops the server: no new connections, readers
// stopped at a frame boundary, in-flight messages handled, writer
// queues drained, then all connections closed. The context bounds the
// drain; on expiry remaining frames are abandoned and connections
// closed hard.
func (s *tcpServer) shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		close(s.stopping)
		s.ln.Close()
		s.mu.Lock()
		for conn := range s.readers {
			closeRead(conn)
		}
		s.mu.Unlock()

		done := make(chan struct{})
		go func() {
			s.readerWg.Wait()
			// Readers are gone: nobody enqueues anymore, so closing the
			// queues lets each writer drain to the last frame and exit.
			s.mu.Lock()
			for _, p := range s.ports {
				close(p.ch)
			}
			s.mu.Unlock()
			s.writerWg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.shutErr = ctx.Err()
			close(s.closed) // unblock senders stuck on full queues
			s.mu.Lock()
			for _, p := range s.ports {
				p.kill()
				p.conn.Close()
			}
			for conn := range s.readers {
				conn.Close()
			}
			s.mu.Unlock()
			<-done
		}
		// Drain complete: every in-flight message has been applied, so
		// the final snapshot captures the broker's last state and the
		// next boot replays nothing from the journal.
		s.snapWg.Wait()
		if s.journal != nil {
			if err := s.journal.Snapshot(); err != nil && s.shutErr == nil {
				s.shutErr = err
			}
		}
		if s.jstore != nil {
			if err := s.jstore.Close(); err != nil && s.shutErr == nil {
				s.shutErr = err
			}
		}
	})
	return s.shutErr
}

// snapshotLoop compacts the journal on a fixed cadence until
// shutdown.
func (s *tcpServer) snapshotLoop(interval time.Duration) {
	defer s.snapWg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopping:
			return
		case <-t.C:
			s.journal.Snapshot()
		}
	}
}

// ListenBroker starts one broker listening on addr (e.g.
// "127.0.0.1:0" or ":7001") — the standalone daemon form used by
// cmd/brokerd. Peer links are added with Broker.ConnectPeer; clients
// connect with Dial. Stop it with Broker.Shutdown.
func ListenBroker(id, addr string, policy Policy, cfg Config, opts ...TCPOption) (*Broker, error) {
	sp, err := policy.toStore()
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	b, err := broker.New(id, sp,
		broker.WithSeed(cfg.Seed),
		broker.WithTableOptions(cfg.TableOptions()...))
	if err != nil {
		return nil, err
	}
	var tc tcpConfig
	for _, opt := range opts {
		opt(&tc)
	}
	var (
		st  persist.Store
		j   *BrokerJournal
		rec RecoveryStats
	)
	if tc.dataDir != "" {
		ds, err := persist.Open(tc.dataDir)
		if err != nil {
			return nil, err
		}
		rec, err = RecoverBroker(b, ds)
		if err != nil {
			ds.Close()
			return nil, fmt.Errorf("pubsub: recover %s: %w", tc.dataDir, err)
		}
		j = NewBrokerJournal(b, ds, tc.syncEvery)
		b.SetJournal(j)
		st = ds
	}
	srv, err := newTCPServer(b, addr, tc)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return nil, err
	}
	srv.journal, srv.jstore, srv.recovery, srv.durable = j, st, rec, st != nil
	if srv.durable {
		registerRecoveryStats(srv.reg, rec)
	}
	if j != nil {
		iv := tc.snapInterval
		if iv <= 0 {
			iv = 30 * time.Second
		}
		srv.snapWg.Add(1)
		go srv.snapshotLoop(iv)
	}
	return &Broker{id: id, impl: srv}, nil
}

// tcpServer implements brokerImpl directly.
var _ brokerImpl = (*tcpServer)(nil)

// TCPTransport hosts the overlay on real sockets within one process:
// every broker gets its own loopback listener, Connect dials both
// directions, and Open dials a real client connection. It exists so
// the same program (and the same tests) can run against the
// deployable stack; multi-process deployments use ListenBroker and
// Dial directly.
type TCPTransport struct {
	policy Policy
	cfg    Config
	opts   []TCPOption

	mu       sync.Mutex
	brokers  map[string]*Broker
	clients  []*Client
	shutdown bool
}

// NewTCPTransport creates an empty TCP overlay with the given coverage
// policy and tuning. Brokers listen on ephemeral loopback ports.
// Config.DropRate/DupRate are a simulator-only feature and rejected
// here: TCP links get their loss from the real network.
func NewTCPTransport(policy Policy, cfg Config, opts ...TCPOption) (*TCPTransport, error) {
	if _, err := policy.toStore(); err != nil {
		return nil, err
	}
	if cfg.DropRate > 0 || cfg.DupRate > 0 {
		return nil, fmt.Errorf("pubsub: failure injection is simulator-only; TCP transports take real losses")
	}
	return &TCPTransport{
		policy:  policy,
		cfg:     cfg,
		opts:    opts,
		brokers: make(map[string]*Broker),
	}, nil
}

var _ Transport = (*TCPTransport)(nil)

// AddBroker creates a broker node listening on an ephemeral loopback
// port.
func (t *TCPTransport) AddBroker(id string) (*Broker, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.shutdown {
		return nil, fmt.Errorf("pubsub: transport is shut down")
	}
	if _, dup := t.brokers[id]; dup {
		return nil, fmt.Errorf("pubsub: duplicate broker %s", id)
	}
	b, err := ListenBroker(id, "127.0.0.1:0", t.policy, t.cfg, t.opts...)
	if err != nil {
		return nil, err
	}
	t.brokers[id] = b
	return b, nil
}

// Broker returns a previously added broker.
func (t *TCPTransport) Broker(id string) (*Broker, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.brokers[id]
	return b, ok
}

// Brokers lists broker IDs, sorted.
func (t *TCPTransport) Brokers() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.brokers))
	for id := range t.brokers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Connect links two brokers bidirectionally: each side dials the
// other.
func (t *TCPTransport) Connect(a, b string) error {
	t.mu.Lock()
	ba, oka := t.brokers[a]
	bb, okb := t.brokers[b]
	t.mu.Unlock()
	if !oka {
		return fmt.Errorf("pubsub: unknown broker %s", a)
	}
	if !okb {
		return fmt.Errorf("pubsub: unknown broker %s", b)
	}
	if err := ba.ConnectPeer(b, bb.Addr()); err != nil {
		return err
	}
	return bb.ConnectPeer(a, ba.Addr())
}

// Open dials a client connection to the given broker.
func (t *TCPTransport) Open(ctx context.Context, clientName, brokerID string) (*Client, error) {
	t.mu.Lock()
	b, ok := t.brokers[brokerID]
	down := t.shutdown
	t.mu.Unlock()
	if down {
		return nil, fmt.Errorf("pubsub: transport is shut down")
	}
	if !ok {
		return nil, fmt.Errorf("pubsub: unknown broker %s", brokerID)
	}
	c, err := Dial(ctx, b.Addr(), clientName)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	if t.shutdown {
		// Shutdown began while we were dialing and has already
		// snapshotted t.clients; close the latecomer instead of
		// leaking its connection and pump goroutine.
		t.mu.Unlock()
		c.Close()
		return nil, fmt.Errorf("pubsub: transport is shut down")
	}
	t.clients = append(t.clients, c)
	t.mu.Unlock()
	return c, nil
}

// Settle polls the summed broker metrics until they are unchanged over
// a few consecutive polls — the TCP stand-in for the simulator's
// run-to-quiescence. It only observes this transport's brokers, so it
// cannot vouch for overlays spanning processes.
func (t *TCPTransport) Settle(ctx context.Context) error {
	const (
		interval = 10 * time.Millisecond
		stable   = 5 // consecutive unchanged polls to declare quiescence
	)
	var last Metrics
	streak := 0
	for first := true; ; first = false {
		if err := ctx.Err(); err != nil {
			return err
		}
		var sum Metrics
		t.mu.Lock()
		for _, b := range t.brokers {
			sum.Add(b.Metrics())
		}
		t.mu.Unlock()
		if !first && sum == last {
			streak++
			if streak >= stable {
				return nil
			}
		} else {
			streak = 0
		}
		last = sum
		select {
		case <-time.After(interval):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Shutdown closes every client and gracefully stops every broker
// within the context's deadline.
func (t *TCPTransport) Shutdown(ctx context.Context) error {
	t.mu.Lock()
	t.shutdown = true
	clients := t.clients
	brokers := make([]*Broker, 0, len(t.brokers))
	for _, b := range t.brokers {
		brokers = append(brokers, b)
	}
	t.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
	var firstErr error
	for _, b := range brokers {
		if err := b.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// tcpClient is the socket side of a Client.
type tcpClient struct {
	conn net.Conn
	mu   sync.Mutex // serializes writes
}

// Dial connects a client to a broker's listen address — the
// cross-process form of Transport.Open, used by cmd/psclient. The
// name identifies the client on its broker; redialing with the same
// name replaces the previous connection and resumes its
// subscriptions. Dial returns once the broker's ack has arrived,
// waiting at most as long as ctx allows; an ack that advertises
// another wire version fails the dial with an error naming both
// versions.
func Dial(ctx context.Context, addr, name string) (*Client, error) {
	if name == "" {
		return nil, fmt.Errorf("pubsub: empty client name")
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pubsub: dial %s: %w", addr, err)
	}
	r, err := clientHandshake(ctx, conn, addr, name)
	if err != nil {
		conn.Close()
		return nil, err
	}
	tc := &tcpClient{conn: conn}
	c := &Client{name: name, impl: tc, q: newNotifyQueue()}
	go tc.readLoop(r, c.q)
	return c, nil
}

// clientHandshake runs the client's side of the handshake, aborting
// the ack read when ctx ends. The returned reader may already hold
// notifications queued behind the ack.
func clientHandshake(ctx context.Context, conn net.Conn, addr, name string) (*frameReader, error) {
	// Cancellation forces the blocked read to return by moving the
	// deadline into the past.
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
	r, _, err := exchangeHello(conn, &Frame{Hello: name, Client: true, Codec: uint8(CodecBinary5)}, "broker at "+addr)
	if !stop() {
		// ctx ended mid-handshake; its past deadline poisoned conn.
		return nil, fmt.Errorf("pubsub: handshake: %w", ctx.Err())
	}
	return r, err
}

// send encodes one message into a pooled buffer and writes it in one
// call, honoring the context's deadline.
func (c *tcpClient) send(ctx context.Context, msg broker.Message) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	buf := getEncBuf()
	defer putEncBuf(buf)
	data, err := MarshalFrame(CodecBinary5, (*buf)[:0], &Frame{Msg: &msg})
	*buf = data[:0]
	if err != nil {
		return fmt.Errorf("pubsub: send: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if d, ok := ctx.Deadline(); ok {
		c.conn.SetWriteDeadline(d)
		defer c.conn.SetWriteDeadline(time.Time{})
	}
	if _, err := c.conn.Write(data); err != nil {
		return fmt.Errorf("pubsub: send: %w", err)
	}
	return nil
}

// readLoop feeds pushed notifications into the queue until the
// connection ends. A read error — including a JSON frame after the
// handshake — ends the stream and closes the connection.
func (c *tcpClient) readLoop(r *frameReader, q *notifyQueue) {
	var fr Frame
	for {
		if err := r.read(&fr); err != nil {
			q.finish()
			c.conn.Close()
			return
		}
		if fr.Msg.Kind == broker.MsgNotify {
			q.push(Notification{SubID: fr.Msg.SubID, PubID: fr.Msg.PubID, Pub: fr.Msg.Pub})
		}
	}
}

func (c *tcpClient) close() error { return c.conn.Close() }
