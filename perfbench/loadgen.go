package main

import (
	"context"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"probsum/pubsub"
)

// pubPhase drives and judges one publishing phase. The publisher
// goroutine owns the send-side slices, the collector goroutine owns the
// receive-side ones; both are read only after the two have stopped.
type pubPhase struct {
	id    int
	in    *inputs
	first int           // pool offset of seq 0
	dur   time.Duration // measured length
	base  time.Time
	tr    *tracer

	// Publisher side.
	due, sent, call []int64 // ns since base; call is the Publish duration
	sendErr         []bool
	n, matching     int
	// Saturation: first publication after warm-up, and process CPU time
	// then and at the end.
	warmSeq         int
	cpuWarm, cpuEnd time.Duration

	// Collector side.
	got       []int32
	sig       []uint64
	last      []int64
	extra     int
	completed atomic.Int64
	done      chan struct{} // saturation: one token per completed matching publication
	stop      chan struct{}
	wg        sync.WaitGroup
}

// newPubPhase sizes a phase of length dur for capacity publications;
// window > 0 makes it a saturation phase with that many matching
// publications in flight.
func newPubPhase(id int, in *inputs, first int, dur time.Duration, capacity, window int, tr *tracer) *pubPhase {
	ph := &pubPhase{
		id: id, in: in, first: first, dur: dur, tr: tr,
		due: make([]int64, capacity), sent: make([]int64, capacity), call: make([]int64, capacity),
		sendErr: make([]bool, capacity),
		got:     make([]int32, capacity), sig: make([]uint64, capacity), last: make([]int64, capacity),
		stop:    make(chan struct{}),
		warmSeq: -1,
	}
	if window > 0 {
		// One slot per publication in flight: the collector never blocks.
		ph.done = make(chan struct{}, window)
	}
	return ph
}

func (ph *pubPhase) entry(seq int) *pubEntry {
	return &ph.in.pool[(ph.first+seq)%len(ph.in.pool)]
}

func (ph *pubPhase) pubID(seq int) string {
	return "p" + strconv.Itoa(ph.id) + "." + strconv.Itoa(seq)
}

// op is the operation id shared by every span of one publication; the
// subscriber's operations are numbered below 1<<32.
func (ph *pubPhase) op(seq int) int64 { return int64(ph.id+1)<<32 | int64(seq) }

// start launches the collector on the subscriber's notification stream.
func (ph *pubPhase) start(ch <-chan pubsub.Notification) {
	ph.base = time.Now()
	ph.wg.Add(1)
	go func() {
		defer ph.wg.Done()
		for {
			select {
			case n, ok := <-ch:
				if !ok {
					return
				}
				ph.observe(n, time.Now())
			case <-ph.stop:
				return
			}
		}
	}()
}

// observe judges one notification against the oracle.
func (ph *pubPhase) observe(n pubsub.Notification, at time.Time) {
	phase, seq, ok := parsePubID(n.PubID)
	if !ok || phase > ph.id || seq >= len(ph.got) {
		ph.extra++
		return
	}
	if phase < ph.id {
		return // arrived after its phase ended, which counted it missing
	}
	e := ph.entry(seq)
	idx, standing := parseStanding(n.SubID)
	if !standing || !e.expects(idx) {
		ph.extra++
		return
	}
	ph.got[seq]++
	ph.sig[seq] += idSig(idx)
	ph.last[seq] = int64(at.Sub(ph.base))
	if ph.tr != nil {
		ph.tr.add("client.notify", ph.op(seq), "client.publish", at, at)
	}
	switch g := int(ph.got[seq]); {
	case g == len(e.expect):
		ph.completed.Add(1)
		if ph.done != nil {
			ph.done <- struct{}{}
		}
	case g > len(e.expect):
		ph.extra++
	}
}

// send publishes seq, due at due (ns since base).
func (ph *pubPhase) send(ctx context.Context, c *pubsub.Client, seq int, due int64) {
	e := ph.entry(seq)
	t0 := time.Now()
	err := c.Publish(ctx, ph.pubID(seq), e.pub)
	t1 := time.Now()
	ph.due[seq] = due
	ph.sent[seq] = int64(t0.Sub(ph.base))
	ph.call[seq] = int64(t1.Sub(t0))
	ph.sendErr[seq] = err != nil
	ph.n = seq + 1
	if err == nil && len(e.expect) > 0 {
		ph.matching++
	}
	if ph.tr != nil {
		ph.tr.add("client.publish", ph.op(seq), "", t0, t1)
	}
}

// openLoop publishes at a fixed rate for dur, each publication due on
// its schedule whatever the system's state. The generator sleeps until
// the next due time (see pacer) and then sends everything that is due;
// how late it ran is recorded per publication.
func (ph *pubPhase) openLoop(ctx context.Context, c *pubsub.Client, rate float64) error {
	p, err := newPacer()
	if err != nil {
		return err
	}
	defer p.close()
	period := float64(time.Second) / rate
	for seq := 0; seq < len(ph.due); seq++ {
		due := int64(float64(seq) * period)
		if due >= int64(ph.dur) || ctx.Err() != nil {
			return nil
		}
		if err := p.sleep(time.Duration(due - int64(time.Since(ph.base)))); err != nil {
			return err
		}
		ph.send(ctx, c, seq, due)
	}
	return nil
}

// saturate publishes as fast as the chain completes publications,
// keeping at most the phase's window of matching publications in
// flight, so the backlog cannot grow.
func (ph *pubPhase) saturate(ctx context.Context, c *pubsub.Client) {
	tokens := cap(ph.done)
	warm := int64(ph.dur) / windows * (windows / 5)
	defer func() { ph.cpuEnd = cpuTime() }()
	for seq := 0; seq < len(ph.due); seq++ {
		now := int64(time.Since(ph.base))
		if now >= int64(ph.dur) || ctx.Err() != nil {
			return
		}
		if ph.warmSeq < 0 && now >= warm {
			ph.warmSeq, ph.cpuWarm = seq, cpuTime()
		}
		if len(ph.entry(seq).expect) > 0 {
			for tokens == 0 {
				select {
				case <-ph.done:
					tokens++
				case <-time.After(2 * time.Second):
					return // stalled: finish counts the missing deliveries
				}
			}
			tokens--
		}
		for drained := false; !drained; {
			select {
			case <-ph.done:
				tokens++
			default:
				drained = true
			}
		}
		ph.send(ctx, c, seq, now)
	}
}

// windows is how many equal windows a phase is judged in. Figures are
// medians over the windows, so one disturbed stretch of the run moves
// them little.
const windows = 10

// finish waits for outstanding deliveries (up to limit), stops the
// collector, and returns the phase's verdicts.
func (ph *pubPhase) finish(limit time.Duration) phaseResult {
	deadline := time.Now().Add(limit)
	for ph.completed.Load() < int64(ph.matching) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(ph.stop)
	ph.wg.Wait()
	r := phaseResult{attempted: ph.n, extra: ph.extra, window: ph.dur / windows}
	var sends [windows]int
	for seq := 0; seq < ph.n; seq++ {
		e := ph.entry(seq)
		w := min(int(time.Duration(ph.due[seq])/r.window), windows-1)
		sends[w]++
		r.late = append(r.late, float64(ph.sent[seq]-ph.due[seq])/1e6)
		r.callUs = append(r.callUs, float64(ph.call[seq])/1e3)
		lat := math.Inf(1) // missing the latency limit, whatever it is
		switch {
		case ph.sendErr[seq]:
			r.failed++
		case len(e.expect) == 0:
			continue
		case int(ph.got[seq]) < len(e.expect):
			r.failed++
		case ph.sig[seq] != e.sig:
			r.extra++
		default:
			lat = float64(ph.last[seq]-ph.due[seq]) / 1e6
		}
		r.matching++
		r.latency[w] = append(r.latency[w], lat)
	}
	// The first fifth warms the saturation probe up.
	var rates []float64
	for w := windows / 5; w < windows; w++ {
		rates = append(rates, float64(sends[w])/r.window.Seconds())
	}
	r.rate = median(rates)
	if cpu := ph.cpuEnd - ph.cpuWarm; ph.warmSeq >= 0 && cpu > 0 {
		r.ratePerCPU = float64(ph.n-ph.warmSeq) / cpu.Seconds()
	}
	return r
}

// phaseResult is one phase's judged outcome.
type phaseResult struct {
	attempted, matching, failed, extra int
	window                             time.Duration
	latency                            [windows][]float64 // ms per window by due time; +Inf when not delivered
	rate                               float64            // median publications/s over the windows after warm-up
	ratePerCPU                         float64            // publications per process CPU-second after warm-up
	late                               []float64          // ms the generator sent after the due time
	callUs                             []float64          // Publish call durations
}

// windowed is the median over windows of f on each window's latencies.
// The first window warms the chain up and is left out.
func (r phaseResult) windowed(f func([]float64) float64) float64 {
	var per []float64
	for _, l := range r.latency[1:] {
		if len(l) > 0 {
			per = append(per, f(l))
		}
	}
	return median(per)
}

// notifyPercentile is the windowed p-th latency percentile.
func (r phaseResult) notifyPercentile(p float64) float64 {
	return r.windowed(func(l []float64) float64 { return percentile(l, p) })
}

// inSLO is the windowed share of matching publications fully delivered
// within limitMs; undelivered ones count as missing it.
func (r phaseResult) inSLO(limitMs float64) float64 {
	return r.windowed(func(l []float64) float64 {
		ok := 0
		for _, x := range l {
			if x <= limitMs {
				ok++
			}
		}
		return float64(ok) / float64(len(l))
	})
}

// all returns every latency of the phase.
func (r phaseResult) all() []float64 {
	var out []float64
	for _, l := range r.latency {
		out = append(out, l...)
	}
	return out
}

func parsePubID(id string) (phase, seq int, ok bool) {
	rest, found := strings.CutPrefix(id, "p")
	if !found {
		return 0, 0, false
	}
	a, b, found := strings.Cut(rest, ".")
	if !found {
		return 0, 0, false
	}
	p, err1 := strconv.Atoi(a)
	s, err2 := strconv.Atoi(b)
	return p, s, err1 == nil && err2 == nil && s >= 0
}

func parseStanding(id string) (int32, bool) {
	rest, found := strings.CutPrefix(id, "s")
	if !found {
		return 0, false
	}
	v, err := strconv.Atoi(rest)
	return int32(v), err == nil
}
