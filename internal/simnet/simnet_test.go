package simnet

import (
	"fmt"
	"testing"

	"probsum/internal/broker"
	"probsum/internal/interval"
	"probsum/internal/store"
	"probsum/internal/subscription"
	"probsum/subsume"
)

func box(lo1, hi1, lo2, hi2 int64) subscription.Subscription {
	return subscription.New(interval.New(lo1, hi1), interval.New(lo2, hi2))
}

// TestFigure1DeliveryTrees replays the worked example of the paper's
// Section 2 on the Figure 1 overlay: s2 ⊑ s1, subscription s2's
// flooding is pruned by coverage, and the delivery trees of the two
// publications match the broker sets the paper lists.
func TestFigure1DeliveryTrees(t *testing.T) {
	n := New()
	if err := BuildFigure1(n, store.PolicyPairwise); err != nil {
		t.Fatal(err)
	}
	for client, at := range map[string]string{
		"S1": "B1", "S2": "B6", "P1": "B9", "P2": "B5",
	} {
		if err := n.AttachClient(client, at); err != nil {
			t.Fatal(err)
		}
	}

	// s1 is broad, s2 ⊑ s1.
	s1 := box(0, 100, 0, 100)
	s2 := box(40, 60, 40, 60)
	if err := n.ClientSubscribe("S1", "s1", s1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	// s1 floods the whole tree: every broker except B1 receives it
	// exactly once (8 subscribe messages on 8 links of the tree).
	if got := n.TotalMetrics().SubsForwarded; got != 8 {
		t.Errorf("s1 flooding sent %d messages, want 8", got)
	}

	if err := n.ClientSubscribe("S2", "s2", s2); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	// s2 travels B6→B4, then B4→B3 (s1 came from B3, so B4 never sent
	// s1 there), then B3→B1 — but is suppressed toward B5, B7 and B2
	// where s1 was already forwarded.
	m := n.TotalMetrics()
	if got := m.SubsForwarded - 8; got != 3 {
		t.Errorf("s2 forwarded over %d links, want 3 (B6→B4, B4→B3, B3→B1)", got)
	}
	if m.SubsSuppressed == 0 {
		t.Error("expected coverage suppression for s2")
	}

	// n1 matches both subscriptions: the delivery tree from P1@B9 is
	// B9, B7, B4, B3, B1, B6 (paper text).
	if err := n.ClientPublish("P1", "n1", subscription.NewPublication(50, 50)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	wantTree1 := map[string]bool{"B9": true, "B7": true, "B4": true, "B3": true, "B1": true, "B6": true}
	for _, id := range n.BrokerIDs() {
		got := n.Broker(id).Metrics().PubsReceived
		want := 0
		if wantTree1[id] {
			want = 1
		}
		if got != want {
			t.Errorf("after n1: broker %s received %d publications, want %d", id, got, want)
		}
	}
	if len(n.Delivered("S1")) != 1 || len(n.Delivered("S2")) != 1 {
		t.Errorf("n1 deliveries: S1=%d S2=%d, want 1 and 1",
			len(n.Delivered("S1")), len(n.Delivered("S2")))
	}

	// n2 matches only s1: delivery tree from P2@B5 is B5, B4, B3, B1.
	if err := n.ClientPublish("P2", "n2", subscription.NewPublication(10, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	wantTree2 := map[string]bool{"B5": true, "B4": true, "B3": true, "B1": true}
	for _, id := range n.BrokerIDs() {
		got := n.Broker(id).Metrics().PubsReceived
		want := 0
		if wantTree1[id] {
			want++
		}
		if wantTree2[id] {
			want++
		}
		if got != want {
			t.Errorf("after n2: broker %s received %d publications, want %d", id, got, want)
		}
	}
	if len(n.Delivered("S1")) != 2 {
		t.Errorf("S1 should have both notifications, got %d", len(n.Delivered("S1")))
	}
	if len(n.Delivered("S2")) != 1 {
		t.Errorf("S2 should not receive n2; got %d notifications", len(n.Delivered("S2")))
	}
}

func TestChainPropagationAndGroupCoverage(t *testing.T) {
	n := New()
	if err := BuildChain(n, 5, store.PolicyGroup,
		broker.WithSeed(77),
		broker.WithTableOptions(subsume.WithTableChecker(
			subsume.WithErrorProbability(1e-9),
			subsume.WithMaxTrials(10_000)))); err != nil {
		t.Fatal(err)
	}
	n.AttachClient("sub1", "B1")
	n.AttachClient("sub2", "B1")
	n.AttachClient("pub", "B5")

	// Two halves that jointly cover a later subscription.
	n.ClientSubscribe("sub1", "left", box(0, 60, 0, 100))
	n.ClientSubscribe("sub1", "right", box(40, 100, 0, 100))
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	base := n.TotalMetrics().SubsForwarded
	if base != 8 {
		t.Fatalf("two subscriptions over 4 links = %d forwards, want 8", base)
	}

	// A subscription covered by the union of the two: suppressed at B1
	// already, so no forwards at all.
	n.ClientSubscribe("sub2", "mid", box(20, 80, 10, 90))
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n.TotalMetrics().SubsForwarded - base; got != 0 {
		t.Errorf("union-covered subscription forwarded %d times, want 0", got)
	}

	// Publications matching "mid" still arrive at the subscriber
	// because the covering subscriptions route them.
	n.ClientPublish("pub", "p1", subscription.NewPublication(50, 50))
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	got := n.Delivered("sub2")
	if len(got) != 1 || got[0].SubID != "mid" {
		t.Errorf("sub2 deliveries = %+v, want one notification for mid", got)
	}
}

func TestUnsubscribePromotionPropagates(t *testing.T) {
	n := New()
	if err := BuildChain(n, 3, store.PolicyPairwise); err != nil {
		t.Fatal(err)
	}
	n.AttachClient("c1", "B1")
	n.AttachClient("c2", "B1")
	n.AttachClient("pub", "B3")

	n.ClientSubscribe("c1", "big", box(0, 100, 0, 100))
	n.ClientSubscribe("c2", "small", box(40, 60, 40, 60))
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	// small is suppressed everywhere (covered by big).
	if got := n.TotalMetrics().SubsForwarded; got != 2 {
		t.Fatalf("forwards = %d, want 2 (big over both links)", got)
	}

	// Cancel big: small must be late-forwarded so routing still works.
	n.ClientUnsubscribe("c1", "big")
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	m := n.TotalMetrics()
	if m.Promotions == 0 {
		t.Error("expected promotions after unsubscribing the coverer")
	}

	n.ClientPublish("pub", "p1", subscription.NewPublication(50, 50))
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n.Delivered("c2"); len(got) != 1 {
		t.Errorf("c2 deliveries = %d, want 1 (via promoted subscription)", len(got))
	}
	if got := n.Delivered("c1"); len(got) != 0 {
		t.Errorf("c1 unsubscribed but received %d notifications", len(got))
	}
}

func TestCyclicTopologyDeduplication(t *testing.T) {
	n := New()
	for i := 1; i <= 3; i++ {
		if err := n.AddBroker(fmt.Sprintf("B%d", i), store.PolicyPairwise); err != nil {
			t.Fatal(err)
		}
	}
	// Triangle: cycles must not loop messages forever.
	for _, e := range [][2]string{{"B1", "B2"}, {"B2", "B3"}, {"B1", "B3"}} {
		if err := n.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	n.AttachClient("sub", "B1")
	n.AttachClient("pub", "B3")
	n.ClientSubscribe("sub", "s", box(0, 10, 0, 10))
	steps, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	if steps > 20 {
		t.Errorf("subscription flooding took %d steps; dedup failed?", steps)
	}
	if n.TotalMetrics().DupSubsDropped == 0 {
		t.Error("expected duplicate subscription drops on the cycle")
	}
	n.ClientPublish("pub", "p", subscription.NewPublication(5, 5))
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n.Delivered("sub"); len(got) != 1 {
		t.Errorf("deliveries = %d, want exactly 1 despite the cycle", len(got))
	}
}

func TestGridBroadcastAllSubscribersNotified(t *testing.T) {
	n := New()
	if err := BuildGrid(n, 3, 3, store.PolicyPairwise); err != nil {
		t.Fatal(err)
	}
	// One subscriber per corner, publisher in the center.
	corners := []string{"B1_1", "B3_1", "B1_3", "B3_3"}
	for i, at := range corners {
		client := fmt.Sprintf("c%d", i)
		if err := n.AttachClient(client, at); err != nil {
			t.Fatal(err)
		}
		if err := n.ClientSubscribe(client, fmt.Sprintf("s%d", i), box(0, 50, 0, 50)); err != nil {
			t.Fatal(err)
		}
	}
	n.AttachClient("pub", "B2_2")
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	n.ClientPublish("pub", "p", subscription.NewPublication(25, 25))
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range corners {
		if got := n.Delivered(fmt.Sprintf("c%d", i)); len(got) != 1 {
			t.Errorf("corner client c%d got %d notifications, want 1", i, len(got))
		}
	}
}

// TestSentByKindMatchesBrokerMetrics pins the per-kind send counter
// against the brokers' own counters on a chain: every SUB frame a
// broker forwards and every NOTIFY it emits is counted exactly once,
// and client-originated messages are not counted at all.
func TestSentByKindMatchesBrokerMetrics(t *testing.T) {
	n := New()
	if err := BuildChain(n, 4, store.PolicyPairwise); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ client, at string }{{"a", "B1"}, {"b", "B2"}, {"pub", "B4"}} {
		if err := n.AttachClient(c.client, c.at); err != nil {
			t.Fatal(err)
		}
	}
	// s2 is covered by s1 toward B3, so suppression keeps the forward
	// count below the naive flood.
	n.ClientSubscribe("a", "s1", box(0, 50, 0, 50))
	n.ClientSubscribe("a", "s3", box(60, 90, 60, 90))
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	n.ClientSubscribe("b", "s2", box(10, 20, 10, 20))
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	for v := int64(5); v < 100; v += 10 {
		n.ClientPublish("pub", fmt.Sprintf("p%d", v), subscription.NewPublication(v, v))
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	m := n.TotalMetrics()
	sent := n.SentByKind()
	if m.SubsSuppressed == 0 || m.PubsForwarded == 0 || m.Notifications == 0 {
		t.Fatalf("scenario did no work: %+v", m)
	}
	if got := sent[broker.MsgSubscribe]; got != uint64(m.SubsForwarded) {
		t.Errorf("sent SUB frames = %d, brokers forwarded %d", got, m.SubsForwarded)
	}
	if got := sent[broker.MsgNotify]; got != uint64(m.Notifications) {
		t.Errorf("sent NOTIFY frames = %d, brokers notified %d", got, m.Notifications)
	}
	if got := sent[broker.MsgPublish]; got != uint64(m.PubsForwarded) {
		t.Errorf("sent PUB frames = %d, brokers forwarded %d (client publishes must not count)", got, m.PubsForwarded)
	}
}

func TestFailureInjectionDuplicatesAreIdempotent(t *testing.T) {
	n := New(WithFailures(0, 0.5, 99))
	if err := BuildChain(n, 4, store.PolicyPairwise); err != nil {
		t.Fatal(err)
	}
	n.AttachClient("sub", "B1")
	n.AttachClient("pub", "B4")
	n.ClientSubscribe("sub", "s", box(0, 10, 0, 10))
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	n.ClientPublish("pub", "p", subscription.NewPublication(5, 5))
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Duplicated() == 0 {
		t.Skip("no duplicates injected with this seed")
	}
	if got := n.Delivered("sub"); len(got) != 1 {
		t.Errorf("deliveries = %d, want exactly 1 despite duplicated messages", len(got))
	}
}

func TestFailureInjectionDropsLoseMessages(t *testing.T) {
	n := New(WithFailures(1.0, 0, 7)) // drop everything broker-to-broker
	if err := BuildChain(n, 3, store.PolicyPairwise); err != nil {
		t.Fatal(err)
	}
	n.AttachClient("sub", "B1")
	n.AttachClient("pub", "B3")
	n.ClientSubscribe("sub", "s", box(0, 10, 0, 10))
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Dropped() == 0 {
		t.Fatal("expected drops")
	}
	n.ClientPublish("pub", "p", subscription.NewPublication(5, 5))
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n.Delivered("sub"); len(got) != 0 {
		t.Errorf("deliveries = %d, want 0 when the link drops everything", len(got))
	}
}

func TestNetworkConfigErrors(t *testing.T) {
	n := New()
	if err := n.Connect("a", "b"); err == nil {
		t.Error("connect unknown brokers accepted")
	}
	if err := n.AttachClient("c", "nope"); err == nil {
		t.Error("attach to unknown broker accepted")
	}
	if err := n.ClientSubscribe("ghost", "s", box(0, 1, 0, 1)); err == nil {
		t.Error("subscribe from unknown client accepted")
	}
	if err := n.AddBroker("B1", store.PolicyNone); err != nil {
		t.Fatal(err)
	}
	if err := n.AddBroker("B1", store.PolicyNone); err == nil {
		t.Error("duplicate broker accepted")
	}
	if err := n.AttachClient("c", "B1"); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachClient("c", "B1"); err == nil {
		t.Error("duplicate client accepted")
	}
}

func TestStarTopologyFanout(t *testing.T) {
	n := New()
	if err := BuildStar(n, 5, store.PolicyPairwise); err != nil {
		t.Fatal(err)
	}
	n.AttachClient("sub", "B2")
	n.AttachClient("pub", "B5")
	n.ClientSubscribe("sub", "s", box(0, 10, 0, 10))
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	// The hub forwards to its other three leaves: 1 + 3 messages.
	if got := n.TotalMetrics().SubsForwarded; got != 4 {
		t.Errorf("forwards = %d, want 4", got)
	}
	n.ClientPublish("pub", "p", subscription.NewPublication(1, 1))
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n.Delivered("sub"); len(got) != 1 {
		t.Errorf("deliveries = %d, want 1", len(got))
	}
}
