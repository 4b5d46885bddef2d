package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"probsum/internal/broker"
	"probsum/internal/obs"
	"probsum/pubsub"
)

// Workload names.
const (
	wPubSteady = "pub-steady"
	wSubChurn  = "sub-churn"
	wMixed     = "mixed"
)

var workloads = []string{wPubSteady, wSubChurn, wMixed}

// opKind tags one recorded client operation.
type opKind int

const (
	opSubBatch opKind = iota
	opUnsubBatch
	opSub
	opUnsub
)

// clientOp is one subscription operation the subscriber sent, in send
// order; the traced run replays the log through the other layers.
type clientOp struct {
	kind opKind
	op   int64
	subs []pubsub.BatchSub
	ids  []string
}

// run is one pass of a workload over a fresh chain.
type run struct {
	in  *inputs
	sc  scale
	tr  *tracer
	c   *chain
	ops []clientOp

	churnNext int // next churn stream position
	nextOp    int64

	setupS      []float64
	preloadRate []float64
	heapMB      float64
	admitCPU    float64 // subscription operations admitted per CPU-second
	subCallUs   []float64
	main, sat   phaseResult
	phases      []*pubPhase
	totals      broker.Metrics
	perBroker   [3]broker.Metrics
	regStart    [3]obs.JSONMetrics
	regEnd      [3]obs.JSONMetrics
	queueMax    int64
}

// execute runs workload name for dur of measurement.
func execute(ctx context.Context, name string, in *inputs, sc scale, dur time.Duration, tr *tracer) (*run, error) {
	r := &run{in: in, sc: sc, tr: tr}
	window := 0
	switch name {
	case wSubChurn:
		window = sc.Window
	case wMixed:
		window = sc.MixedWindow
	}
	for i := 0; i < sc.Setups; i++ {
		if r.c != nil {
			r.c.close()
			r.c = nil
		}
		if err := r.setup(ctx, window); err != nil {
			if r.c != nil {
				r.c.close()
			}
			return nil, err
		}
	}
	defer r.c.close()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapMB = float64(ms.HeapAlloc) / (1 << 20)

	for i, b := range r.c.brokers() {
		r.regStart[i] = b.Observability().JSON()
	}
	stopSampler := r.sampleQueues()
	var err error
	switch name {
	case wPubSteady:
		err = r.pubSteady(ctx, dur)
	case wSubChurn:
		err = r.subChurn(ctx, dur)
	case wMixed:
		err = r.mixed(ctx, dur)
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	stopSampler()
	if err != nil {
		return nil, err
	}
	if err := r.c.waitAdmitted(ctx, 30*time.Second); err != nil {
		return nil, err
	}
	for i, b := range r.c.brokers() {
		r.regEnd[i] = b.Observability().JSON()
		r.perBroker[i] = b.Metrics()
	}
	r.totals = r.c.totals()
	return r, nil
}

// setup builds a chain, preloads the standing population and, for the
// churn workloads, fills a churn window of that many subscriptions.
func (r *run) setup(ctx context.Context, window int) error {
	t0 := time.Now()
	c, err := newChain(ctx)
	if err != nil {
		return err
	}
	r.c, r.ops, r.churnNext = c, nil, 0
	p0 := time.Now()
	_, subs := r.standingBatch()
	if err := r.subscribeBatch(ctx, subs); err != nil {
		return err
	}
	if err := c.waitAdmitted(ctx, 60*time.Second); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	r.preloadRate = append(r.preloadRate, float64(len(r.in.standing))/time.Since(p0).Seconds())
	if window > 0 {
		for len(c.live) < window {
			if err := r.subscribeBatch(ctx, r.nextInstance()); err != nil {
				return err
			}
		}
		if err := c.waitAdmitted(ctx, 60*time.Second); err != nil {
			return fmt.Errorf("window fill: %w", err)
		}
	}
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	return nil
}

// standingBatch is the standing population as one SUBBATCH, with its IDs.
func (r *run) standingBatch() ([]string, []pubsub.BatchSub) {
	ids := make([]string, len(r.in.standing))
	subs := make([]pubsub.BatchSub, len(r.in.standing))
	for i, s := range r.in.standing {
		ids[i] = standingID(i)
		subs[i] = pubsub.BatchSub{SubID: ids[i], Sub: s}
	}
	return ids, subs
}

// nextInstance takes the next churn instance (its set and s) off the
// stream; IDs keep counting when the stream wraps.
func (r *run) nextInstance() []pubsub.BatchSub {
	k := r.sc.ChurnK + 1
	out := make([]pubsub.BatchSub, k)
	for i := range out {
		n := r.churnNext + i
		out[i] = pubsub.BatchSub{SubID: churnID(n), Sub: r.in.churn[n%len(r.in.churn)]}
	}
	r.churnNext += k
	return out
}

func (r *run) record(kind opKind, subs []pubsub.BatchSub, ids []string) int64 {
	r.nextOp++
	r.ops = append(r.ops, clientOp{kind: kind, op: r.nextOp, subs: subs, ids: ids})
	return r.nextOp
}

func (r *run) subscribeBatch(ctx context.Context, subs []pubsub.BatchSub) error {
	op := r.record(opSubBatch, subs, nil)
	t0 := time.Now()
	err := r.c.subscribeBatch(ctx, subs)
	r.traceSub("client.subscribe", op, t0)
	for _, s := range subs {
		if s.SubID[0] == 'c' {
			r.c.live = append(r.c.live, s.SubID)
		}
	}
	return err
}

// unsubscribeOldest cancels the n oldest churn subscriptions as one batch.
func (r *run) unsubscribeOldest(ctx context.Context, n int) error {
	ids := append([]string(nil), r.c.live[:n]...)
	r.c.live = r.c.live[n:]
	return r.unsubscribeBatch(ctx, ids)
}

func (r *run) unsubscribeBatch(ctx context.Context, ids []string) error {
	op := r.record(opUnsubBatch, nil, ids)
	t0 := time.Now()
	err := r.c.unsubscribeBatch(ctx, ids)
	r.traceSub("client.unsubscribe", op, t0)
	return err
}

func (r *run) traceSub(name string, op int64, t0 time.Time) {
	t1 := time.Now()
	r.subCallUs = append(r.subCallUs, float64(t1.Sub(t0))/1e3)
	r.tr.add(name, op, "", t0, t1)
}

// publishPhase runs one open-loop phase at rate for dur.
func (r *run) publishPhase(ctx context.Context, rate float64, dur time.Duration) (phaseResult, error) {
	capacity := int(rate*dur.Seconds()) + 1
	ph := newPubPhase(len(r.phases), r.in, len(r.phases)*7919, dur, capacity, 0, r.tr)
	r.phases = append(r.phases, ph)
	ph.start(r.c.sub.Notifications())
	err := ph.openLoop(ctx, r.c.pub, rate)
	return ph.finish(3 * time.Second), err
}

// saturationPhase runs the bounded-backlog saturation probe for dur.
func (r *run) saturationPhase(ctx context.Context, dur time.Duration) {
	capacity := int(dur.Seconds()*60_000) + 1 // about four times the rate measured on two cores
	ph := newPubPhase(len(r.phases), r.in, len(r.phases)*7919, dur, capacity, r.sc.SatWindow, r.tr)
	r.phases = append(r.phases, ph)
	runtime.GC()
	ph.start(r.c.sub.Notifications())
	ph.saturate(ctx, r.c.pub)
	r.sat = ph.finish(3 * time.Second)
}

// readmitStanding measures closed-loop admission on the standing
// population for dur: cancel all of it as one UNSUBBATCH, admit it again
// as one SUBBATCH, each time waiting until every hop has processed it.
// A single preload takes about 60 ms of CPU, too little to average out
// the host; repeating it for a share of the run does.
func (r *run) readmitStanding(ctx context.Context, dur time.Duration) error {
	ids, subs := r.standingBatch()
	runtime.GC()
	t0, c0 := time.Now(), cpuTime()
	ops := 0
	for time.Since(t0) < dur {
		if err := r.unsubscribeBatch(ctx, ids); err != nil {
			return err
		}
		if err := r.c.waitAdmitted(ctx, 30*time.Second); err != nil {
			return err
		}
		if err := r.subscribeBatch(ctx, subs); err != nil {
			return err
		}
		if err := r.c.waitAdmitted(ctx, 30*time.Second); err != nil {
			return err
		}
		ops += 2 * len(subs)
	}
	r.admitCPU = float64(ops) / (cpuTime() - c0).Seconds()
	return nil
}

// pubSteady: closed-loop re-admission of the standing population, then
// an open loop well below saturation over it, then the saturation probe.
func (r *run) pubSteady(ctx context.Context, dur time.Duration) error {
	if err := r.readmitStanding(ctx, dur/10); err != nil {
		return err
	}
	var err error
	if r.main, err = r.publishPhase(ctx, r.sc.SteadyRate, dur*55/100); err != nil {
		return err
	}
	r.saturationPhase(ctx, dur*35/100)
	return nil
}

// subChurn: closed-loop churn of the live window (one instance in, the
// oldest instance out, then wait until admitted along the chain), then
// a probe publication phase and the saturation probe on the churned
// state.
func (r *run) subChurn(ctx context.Context, dur time.Duration) error {
	k := r.sc.ChurnK + 1
	churnDur := dur * 7 / 10
	runtime.GC()
	t0, c0 := time.Now(), cpuTime()
	ops := 0
	for time.Since(t0) < churnDur {
		a0 := time.Now()
		if err := r.subscribeBatch(ctx, r.nextInstance()); err != nil {
			return err
		}
		if err := r.unsubscribeOldest(ctx, k); err != nil {
			return err
		}
		if err := r.c.waitAdmitted(ctx, 30*time.Second); err != nil {
			return err
		}
		ops += 2 * k
		r.tr.add("chain.admit", r.nextOp, "client.subscribe", a0, time.Now())
	}
	r.admitCPU = float64(ops) / (cpuTime() - c0).Seconds()
	var err error
	if r.main, err = r.publishPhase(ctx, r.sc.ProbeRate, dur*15/100); err != nil {
		return err
	}
	r.saturationPhase(ctx, dur*15/100)
	return nil
}

// mixed: pub-steady's publish stream with an open-loop churn of single
// Subscribe/Unsubscribe calls beside it, then the saturation
// probe with the churn still running. Admission throughput is measured
// as in pub-steady, before the churn starts: the open-loop churn's rate
// is an input, not a result.
func (r *run) mixed(ctx context.Context, dur time.Duration) error {
	if err := r.readmitStanding(ctx, dur/10); err != nil {
		return err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var churnErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		churnErr = r.churnOpenLoop(ctx, r.sc.MixedChurn, stop)
	}()
	var err error
	r.main, err = r.publishPhase(ctx, r.sc.MixedRate, dur*6/10)
	if err == nil {
		r.saturationPhase(ctx, dur*3/10)
	}
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	return churnErr
}

// churnOpenLoop alternates single subscribes of the next churn
// subscription and unsubscribes of the oldest, rate operations per
// second, until stop closes.
func (r *run) churnOpenLoop(ctx context.Context, rate float64, stop <-chan struct{}) error {
	period := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	var pending []pubsub.BatchSub
	for i := 0; ; i++ {
		select {
		case <-stop:
			return nil
		case <-time.After(time.Until(t0.Add(time.Duration(i) * period))):
		}
		var err error
		if i%2 == 0 {
			if len(pending) == 0 {
				pending = r.nextInstance()
			}
			s := pending[0]
			pending = pending[1:]
			op := r.record(opSub, []pubsub.BatchSub{s}, nil)
			a := time.Now()
			err = r.c.subscribe(ctx, s)
			r.traceSub("client.subscribe", op, a)
			r.c.live = append(r.c.live, s.SubID)
		} else {
			id := r.c.live[0]
			r.c.live = r.c.live[1:]
			op := r.record(opUnsub, nil, []string{id})
			a := time.Now()
			err = r.c.unsubscribe(ctx, id)
			r.traceSub("client.unsubscribe", op, a)
		}
		if err != nil {
			return err
		}
	}
}

// sampleQueues records the deepest send queue across brokers while a
// traced run measures; untraced runs skip it.
func (r *run) sampleQueues() (stop func()) {
	if r.tr == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				for _, b := range r.c.brokers() {
					if d := b.Observability().JSON().Gauges["send_queue_depth_total"]; d > r.queueMax {
						r.queueMax = d
					}
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}
