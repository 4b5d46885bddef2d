package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"probsum/internal/broker"
	"probsum/internal/conflict"
	"probsum/internal/core"
	"probsum/internal/obs"
	"probsum/internal/simnet"
	"probsum/internal/store"
	"probsum/internal/subscription"
	"probsum/pubsub"
	"probsum/subsume"
)

// Checker decision reasons, one per-layer count each.
var reasons = []core.Reason{
	core.ReasonPairwiseCover, core.ReasonEmptyMCS, core.ReasonPolyhedronWitness,
	core.ReasonPointWitness, core.ReasonTrialsExhausted,
}

// Frame kinds counted on the TCP links.
var linkKinds = []string{"publish", "notify", "subscribe", "subscribe-batch", "unsubscribe", "unsubscribe-batch"}

// tracedRun measures the workload untraced and then traced, each for
// half of dur, replays the traced run's inputs through the simulator,
// a coverage table and the checker, and reports the per-layer figures.
// Self time per layer is the difference between adjacent passes.
func tracedRun(ctx context.Context, o options, in *inputs, dur time.Duration, out io.Writer) (*report, error) {
	sc := o.sc
	sc.Setups = 1
	plain, err := execute(ctx, o.workload, in, sc, dur/2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	r, err := execute(ctx, o.workload, in, sc, dur/2, tr)
	if err != nil {
		return nil, err
	}
	rep := r.report(out)
	p := plain.report(io.Discard)
	rep.Correct = rep.Correct && p.Correct
	rep.Attempted += p.Attempted
	rep.Failed += p.Failed
	m := map[string]metric{}
	r.clientLayer(m)
	if err := r.codecLayer(m); err != nil {
		return nil, err
	}
	r.tcpLayer(m)
	sim, err := r.simPass(tr)
	if err != nil {
		return nil, err
	}
	if diffs := r.equivalence(sim); len(diffs) > 0 {
		for _, d := range diffs {
			fmt.Fprintln(out, "check equivalence:", d)
		}
		rep.Correct = false
	} else {
		fmt.Fprintf(out, "check equivalence: sim reproduces TCP delivery sets for %d publications and SubsReceived/SubsForwarded/SubsSuppressed at B1-B3\n", sim.pubs)
	}
	st, err := r.storeReplay(tr)
	if err != nil {
		return nil, err
	}
	r.brokerLayer(m, sim)
	st.metrics(m)

	// Self time: TCP minus sim, sim minus table, table minus checker.
	m["self.pub.tcp_us"] = metric{r.main.notifyPercentile(50)*1e3 - sim.opUs["pub"], "us"}
	m["self.pub.broker_us"] = metric{sim.opUs["pub"] - st.matchUs, "us"}
	m["self.sub.tcp_us"] = metric{1e6/median(r.preloadRate) - sim.preloadUs, "us"}
	m["self.sub.broker_us"] = metric{sim.opUs["sub"] - st.subUs, "us"}
	m["self.sub.store_us"] = metric{st.subUs - st.checkUsPerSub, "us"}

	m["trace.overhead_notify_p50_ms"] = metric{r.main.notifyPercentile(50) - plain.main.notifyPercentile(50), "ms"}
	m["trace.overhead_admit_pct"] = metric{100 * (plain.admitCPU - r.admitCPU) / plain.admitCPU, "%"}
	m["trace.spans"] = metric{float64(tr.count()), "count"}
	path, err := tr.write(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl.gz", o.workload, o.seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "trace: %d spans written to %s\n", tr.count(), path)
	rep.Metrics = m
	return rep, nil
}

// clientLayer: load generator pacing and client call costs.
func (r *run) clientLayer(m map[string]metric) {
	call := append(append([]float64(nil), r.main.callUs...), r.sat.callUs...)
	m["loadgen.late_p50_ms"] = metric{percentile(r.main.late, 50), "ms"}
	m["loadgen.late_p99_ms"] = metric{percentile(r.main.late, 99), "ms"}
	m["loadgen.saturation_per_s"] = metric{r.sat.rate, "1/s"}
	m["client.publish_call_us"] = metric{median(call), "us"}
	m["client.subscribe_call_us"] = metric{median(r.subCallUs), "us"}
	m["client.notify_p10_ms"] = metric{r.main.notifyPercentile(10), "ms"}
	m["client.notify_p50_ms"] = metric{r.main.notifyPercentile(50), "ms"}
	m["client.notify_p90_ms"] = metric{r.main.notifyPercentile(90), "ms"}
	m["client.notify_p99_ms"] = metric{percentile(r.main.all(), 99), "ms"}
	m["client.notify_p999_ms"] = metric{percentile(r.main.all(), 99.9), "ms"}
}

// codecLayer times MarshalFrame/UnmarshalFrame on the workload's own
// frames: its publications, its subscription batches, and the
// notifications they produce.
func (r *run) codecLayer(m map[string]metric) error {
	var pubs, subs, notes []broker.Message
	for i := 0; i < 512; i++ {
		e := &r.in.pool[i%len(r.in.pool)]
		pubs = append(pubs, broker.Message{Kind: broker.MsgPublish, PubID: fmt.Sprintf("p0.%d", i), Pub: e.pub})
		if len(e.expect) > 0 {
			notes = append(notes, broker.Message{Kind: broker.MsgNotify, SubID: standingID(int(e.expect[0])), PubID: fmt.Sprintf("p0.%d", i), Pub: e.pub})
		}
	}
	for _, op := range r.ops {
		if op.kind == opSubBatch && len(subs) < 64 {
			subs = append(subs, broker.Message{Kind: broker.MsgSubscribeBatch, Subs: op.subs})
		}
	}
	for _, k := range []struct {
		name string
		msgs []broker.Message
	}{{"pub", pubs}, {"subbatch", subs}, {"notify", notes}} {
		enc, dec, size, err := codecCost(k.msgs)
		if err != nil {
			return err
		}
		m["codec.encode_ns."+k.name] = metric{enc, "ns"}
		m["codec.decode_ns."+k.name] = metric{dec, "ns"}
		m["codec.bytes."+k.name] = metric{size, "bytes"}
	}
	return nil
}

// codecCost returns the median encode and decode time per frame and
// the mean frame size, over several rounds of msgs.
func codecCost(msgs []broker.Message) (encNs, decNs, bytes float64, err error) {
	if len(msgs) == 0 {
		return 0, 0, 0, nil
	}
	frames := make([][]byte, len(msgs))
	var encs, decs []float64
	var total int
	for round := 0; round < 7; round++ {
		t0 := time.Now()
		for i := range msgs {
			fr := pubsub.Frame{Msg: &msgs[i]}
			if frames[i], err = pubsub.MarshalFrame(pubsub.CodecBinary5, frames[i][:0], &fr); err != nil {
				return 0, 0, 0, err
			}
		}
		encs = append(encs, float64(time.Since(t0).Nanoseconds())/float64(len(msgs)))
		t0 = time.Now()
		for i := range frames {
			if _, _, err = pubsub.UnmarshalFrame(frames[i]); err != nil {
				return 0, 0, 0, err
			}
		}
		decs = append(decs, float64(time.Since(t0).Nanoseconds())/float64(len(msgs)))
	}
	for _, f := range frames {
		total += len(f)
	}
	return median(encs), median(decs), float64(total) / float64(len(frames)), nil
}

// tcpLayer reads each broker's registry as deltas over the measured
// window.
func (r *run) tcpLayer(m map[string]metric) {
	histMean := func(name string) float64 {
		var cnt uint64
		var sum int64
		for i := range r.regEnd {
			a, b := r.regStart[i].Histograms[name], r.regEnd[i].Histograms[name]
			cnt += b.Count - a.Count
			sum += b.SumNs - a.SumNs
		}
		if cnt == 0 {
			return 0
		}
		return float64(sum) / float64(cnt)
	}
	m["tcp.decode_ns"] = metric{histMean("publish_stage_decode_ns"), "ns"}
	m["tcp.enqueue_ns"] = metric{histMean("publish_stage_enqueue_ns"), "ns"}
	m["tcp.write_ns"] = metric{histMean("publish_stage_write_ns"), "ns"}
	m["broker.match_ns"] = metric{histMean("publish_stage_match_ns"), "ns"}
	m["broker.route_ns"] = metric{histMean("publish_stage_route_ns"), "ns"}
	m["tcp.queue_depth_max"] = metric{float64(r.queueMax), "count"}
	for _, kind := range linkKinds {
		var n uint64
		for i := range r.regEnd {
			n += linkSent(r.regEnd[i], kind) - linkSent(r.regStart[i], kind)
		}
		m["tcp.frames."+kind] = metric{float64(n), "count"}
	}
}

func linkSent(j obs.JSONMetrics, kind string) uint64 {
	var n uint64
	for _, l := range j.Links {
		n += l.Sent[kind]
	}
	return n
}

// brokerLayer: broker counters of the TCP run and per-operation cost
// of the simulator pass.
func (r *run) brokerLayer(m map[string]metric, sim *simResult) {
	m["broker.op_us.pub"] = metric{sim.opUs["pub"], "us"}
	m["broker.op_us.sub"] = metric{sim.opUs["sub"], "us"}
	m["broker.op_us.unsub"] = metric{sim.opUs["unsub"], "us"}
	m["broker.subs_forwarded"] = metric{float64(r.totals.SubsForwarded), "count"}
	m["broker.subs_suppressed"] = metric{float64(r.totals.SubsSuppressed), "count"}
	m["broker.promotions"] = metric{float64(r.totals.Promotions), "count"}
	m["broker.pubs_forwarded"] = metric{float64(r.totals.PubsForwarded), "count"}
	m["broker.notifications"] = metric{float64(r.totals.Notifications), "count"}
}

// simResult is the SimTransport replay of the traced run's inputs.
type simResult struct {
	perBroker [3]broker.Metrics
	got       map[string]int
	sig       map[string]uint64
	extra     int
	pubs      int
	opUs      map[string]float64 // per item
	preloadUs float64            // per preload item
}

// simPass replays the traced run's client operations, in send order,
// and then its publications through the deterministic simulator, timing
// each client operation run to quiescence across B1-B3. It drives
// internal/simnet with exactly the broker options SimTransport applies:
// SimTransport copies every client's whole delivery log after each
// operation, which would make a long replay quadratic.
func (r *run) simPass(tr *tracer) (*simResult, error) {
	net := simnet.New()
	for _, id := range []string{"B1", "B2", "B3"} {
		if err := net.AddBroker(id, store.PolicyGroup,
			broker.WithSeed(1), broker.WithTableOptions(pubsub.Config{}.TableOptions()...)); err != nil {
			return nil, err
		}
	}
	for _, l := range [][2]string{{"B1", "B2"}, {"B2", "B3"}} {
		if err := net.Connect(l[0], l[1]); err != nil {
			return nil, err
		}
	}
	for _, c := range [][2]string{{"loadpub", "B1"}, {"loadsub", "B3"}} {
		if err := net.AttachClient(c[0], c[1]); err != nil {
			return nil, err
		}
	}
	res := &simResult{got: map[string]int{}, sig: map[string]uint64{}, opUs: map[string]float64{}}
	step := func(send func() error) (time.Time, time.Time, error) {
		t0 := time.Now()
		err := send()
		if err == nil {
			_, err = net.Run()
		}
		t1 := time.Now()
		for _, x := range net.Delivered("loadsub") {
			if idx, standing := parseStanding(x.SubID); standing && x.Kind == broker.MsgNotify {
				res.got[x.PubID]++
				res.sig[x.PubID] += idSig(idx)
			} else {
				res.extra++
			}
		}
		net.ClearDeliveries()
		return t0, t1, err
	}

	spent := map[string]time.Duration{}
	items := map[string]int{}
	var preload time.Duration
	for i, op := range r.ops {
		var kind string
		var n int
		var send func() error
		switch op.kind {
		case opSubBatch:
			kind, n = "sub", len(op.subs)
			send = func() error { return net.ClientSubscribeBatch("loadsub", op.subs) }
		case opUnsubBatch:
			kind, n = "unsub", len(op.ids)
			send = func() error { return net.ClientUnsubscribeBatch("loadsub", op.ids) }
		case opSub:
			kind, n = "sub", 1
			send = func() error { return net.ClientSubscribe("loadsub", op.subs[0].SubID, op.subs[0].Sub) }
		case opUnsub:
			kind, n = "unsub", 1
			send = func() error { return net.ClientUnsubscribe("loadsub", op.ids[0]) }
		}
		t0, t1, err := step(send)
		if err != nil {
			return nil, fmt.Errorf("sim replay: %w", err)
		}
		parent := "client.subscribe"
		if kind == "unsub" {
			parent = "client.unsubscribe"
		}
		tr.add("sim."+kind, op.op, parent, t0, t1)
		spent[kind] += t1.Sub(t0)
		items[kind] += n
		if i == 0 { // the set-up's preload
			preload += t1.Sub(t0)
		}
	}
	for _, ph := range r.phases {
		for seq := 0; seq < ph.n; seq++ {
			if ph.sendErr[seq] {
				continue
			}
			id, pub := ph.pubID(seq), ph.entry(seq).pub
			t0, t1, err := step(func() error { return net.ClientPublish("loadpub", id, pub) })
			if err != nil {
				return nil, fmt.Errorf("sim replay: %w", err)
			}
			tr.add("sim.pub", ph.op(seq), "client.publish", t0, t1)
			spent["pub"] += t1.Sub(t0)
			items["pub"]++
			res.pubs++
		}
	}
	for kind, d := range spent {
		if items[kind] > 0 {
			res.opUs[kind] = float64(d.Nanoseconds()) / 1e3 / float64(items[kind])
		}
	}
	if len(r.in.standing) > 0 {
		res.preloadUs = float64(preload.Nanoseconds()) / 1e3 / float64(len(r.in.standing))
	}
	for i, id := range []string{"B1", "B2", "B3"} {
		res.perBroker[i] = net.Broker(id).Metrics()
	}
	return res, nil
}

// equivalence lists every difference between the TCP run and its
// simulator replay: per-publication delivery sets and each broker's
// admission counters.
func (r *run) equivalence(sim *simResult) []string {
	var diffs []string
	for i, id := range []string{"B1", "B2", "B3"} {
		t, s := r.perBroker[i], sim.perBroker[i]
		if t.SubsReceived != s.SubsReceived || t.SubsForwarded != s.SubsForwarded || t.SubsSuppressed != s.SubsSuppressed {
			diffs = append(diffs, fmt.Sprintf("%s received/forwarded/suppressed tcp=%d/%d/%d sim=%d/%d/%d",
				id, t.SubsReceived, t.SubsForwarded, t.SubsSuppressed, s.SubsReceived, s.SubsForwarded, s.SubsSuppressed))
		}
	}
	if sim.extra > 0 {
		diffs = append(diffs, fmt.Sprintf("sim delivered %d notifications to churn subscriptions", sim.extra))
	}
	mismatched := 0
	for _, ph := range r.phases {
		for seq := 0; seq < ph.n; seq++ {
			if ph.sendErr[seq] {
				continue
			}
			id := ph.pubID(seq)
			if int(ph.got[seq]) != sim.got[id] || ph.sig[seq] != sim.sig[id] {
				if mismatched < 5 {
					diffs = append(diffs, fmt.Sprintf("publication %s: tcp delivered %d, sim %d", id, ph.got[seq], sim.got[id]))
				}
				mismatched++
			}
		}
	}
	if mismatched > 5 {
		diffs = append(diffs, fmt.Sprintf("%d publications differ in all", mismatched))
	}
	return diffs
}

// storeResult is the coverage-table and checker replay.
type storeResult struct {
	subUs, unsubUs, matchUs float64
	checkUsPerSub           float64
	tm                      subsume.TableMetrics
	suppressed, admitted    int
	checkUs, buildUs, mcsUs []float64
	trials, rows            []float64
	decisions               map[core.Reason]int
}

// storeReplay replays the subscriber's operations into one
// subsume.Table built with pubsub.Config.TableOptions() (the options a
// broker gives each neighbor table), batch for batch and item for item
// as the broker calls it. For each admitted subscription it then asks
// subsume.Checker.CoveredInto the table's question — in the batch path's
// descending-volume order, against the active subscriptions that
// intersect it — and times conflict-table build and MCS on the same
// inputs. Publications are matched against the final table.
func (r *run) storeReplay(tr *tracer) (*storeResult, error) {
	res := &storeResult{decisions: map[core.Reason]int{}}
	tbl, err := subsume.NewTable(subsume.Group, pubsub.Config{}.TableOptions()...)
	if err != nil {
		return nil, err
	}
	checker, err := subsume.NewChecker(subsume.WithErrorProbability(1e-6), subsume.WithMaxTrials(100_000))
	if err != nil {
		return nil, err
	}
	ids := map[string]subsume.ID{}
	var nextID subsume.ID
	active := map[subsume.ID]subscription.Subscription{}
	var subT, unsubT, checkT time.Duration
	var subN, unsubN int
	var cr subsume.Result
	var cands []subscription.Subscription
	for _, op := range r.ops {
		if len(op.subs) > 0 {
			batch := make([]subsume.ID, len(op.subs))
			subs := make([]subscription.Subscription, len(op.subs))
			for i, s := range op.subs {
				nextID++
				batch[i] = nextID
				ids[s.SubID] = batch[i]
				subs[i] = s.Sub
			}
			t0 := time.Now()
			var results []subsume.SubscribeResult
			if op.kind == opSub {
				var res subsume.SubscribeResult
				res, err = tbl.Subscribe(batch[0], subs[0])
				results = []subsume.SubscribeResult{res}
			} else {
				results, err = tbl.SubscribeBatch(batch, subs)
			}
			t1 := time.Now()
			tr.add("table.subscribe", op.op, "sim.sub", t0, t1)
			if err != nil {
				return nil, fmt.Errorf("table replay: %w", err)
			}
			subT += t1.Sub(t0)
			subN += len(subs)
			order := make([]int, len(subs))
			for i := range order {
				order[i] = i
			}
			sort.SliceStable(order, func(a, b int) bool { return subs[order[a]].LogSize() > subs[order[b]].LogSize() })
			for _, i := range order {
				s := subs[i]
				cands = cands[:0]
				for _, a := range active {
					if a.Intersects(s) {
						cands = append(cands, a)
					}
				}
				if results[i].Status == subsume.StatusActive {
					active[batch[i]] = s
					res.admitted++
				} else {
					res.suppressed++
				}
				if len(cands) == 0 {
					continue
				}
				t0 := time.Now()
				if err := checker.CoveredInto(&cr, s, cands); err == nil {
					t1 := time.Now()
					checkT += t1.Sub(t0)
					tr.add("checker.covered", op.op, "table.subscribe", t0, t1)
					res.checkUs = append(res.checkUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
					res.decisions[cr.Detail().Reason]++
					res.trials = append(res.trials, float64(cr.Trials()))
					res.rows = append(res.rows, float64(len(cr.ReducedSet())))
				}
				t0 = time.Now()
				if ct, err := conflict.Build(s, cands); err == nil {
					t1 := time.Now()
					core.MCS(ct)
					t2 := time.Now()
					res.buildUs = append(res.buildUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
					res.mcsUs = append(res.mcsUs, float64(t2.Sub(t1).Nanoseconds())/1e3)
				}
			}
		}
		if len(op.ids) > 0 {
			batch := make([]subsume.ID, len(op.ids))
			for i, sid := range op.ids {
				batch[i] = ids[sid]
				delete(active, batch[i])
			}
			t0 := time.Now()
			var promoted []subsume.ID
			if op.kind == opUnsub {
				var ur subsume.UnsubscribeResult
				ur, err = tbl.Unsubscribe(batch[0])
				promoted = ur.Promoted
			} else {
				var ur subsume.UnsubscribeBatchResult
				ur, err = tbl.UnsubscribeBatch(batch)
				promoted = ur.Promoted
			}
			t1 := time.Now()
			tr.add("table.unsubscribe", op.op, "sim.unsub", t0, t1)
			if err != nil {
				return nil, fmt.Errorf("table replay: %w", err)
			}
			unsubT += t1.Sub(t0)
			unsubN += len(batch)
			for _, p := range promoted {
				if sub, _, ok := tbl.Get(p); ok {
					active[p] = sub
				}
			}
		}
	}
	var matchT time.Duration
	matchN := 0
	for _, ph := range r.phases {
		for seq := 0; seq < ph.n && matchN < 20000; seq++ {
			t0 := time.Now()
			tbl.Match(ph.entry(seq).pub)
			matchT += time.Since(t0)
			matchN++
		}
	}
	per := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / 1e3 / float64(n)
	}
	res.subUs, res.unsubUs, res.matchUs = per(subT, subN), per(unsubT, unsubN), per(matchT, matchN)
	res.checkUsPerSub = per(checkT, subN)
	res.tm = tbl.Metrics()
	return res, nil
}

func (s *storeResult) metrics(m map[string]metric) {
	m["store.subscribe_us"] = metric{s.subUs, "us"}
	m["store.unsubscribe_us"] = metric{s.unsubUs, "us"}
	m["store.match_us"] = metric{s.matchUs, "us"}
	ratio := 0.0
	if n := s.suppressed + s.admitted; n > 0 {
		ratio = float64(s.suppressed) / float64(n)
	}
	m["store.suppressed_ratio"] = metric{ratio, "ratio"}
	m["store.promotions"] = metric{float64(s.tm.Promotions), "count"}
	m["store.migrations"] = metric{float64(s.tm.Migrations), "count"}
	m["checker.covered_us"] = metric{mean(s.checkUs), "us"}
	m["checker.trials_per_decision"] = metric{mean(s.trials), "count"}
	m["checker.reduced_rows"] = metric{mean(s.rows), "count"}
	m["conflict.build_us"] = metric{mean(s.buildUs), "us"}
	m["core.mcs_us"] = metric{mean(s.mcsUs), "us"}
	for _, reason := range reasons {
		m["checker.decisions."+reason.String()] = metric{float64(s.decisions[reason]), "count"}
	}
}
