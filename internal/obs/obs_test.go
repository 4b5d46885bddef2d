package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram()
	// 1000 observations at ~1µs, 10 at ~1ms: p50 lands in the µs
	// bucket, p99/p999 must not exceed max.
	for i := 0; i < 1000; i++ {
		h.Observe(1 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 1010 {
		t.Fatalf("count = %d, want 1010", s.Count)
	}
	if s.MaxNs != int64(time.Millisecond) {
		t.Fatalf("max = %d, want %d", s.MaxNs, int64(time.Millisecond))
	}
	p50 := s.Quantile(0.50)
	if p50 < 512 || p50 > 2048 {
		t.Fatalf("p50 = %dns, want within [512, 2048] (log2 bucket around 1µs)", p50)
	}
	p999 := s.Quantile(0.999)
	if p999 > s.MaxNs {
		t.Fatalf("p999 = %d > max %d", p999, s.MaxNs)
	}
	if p999 < int64(512*time.Microsecond) {
		t.Fatalf("p999 = %dns, want in the ms bucket", p999)
	}
	if mean := s.MeanNs(); mean < 1000 || mean > 20000 {
		t.Fatalf("mean = %dns, want ~11µs", mean)
	}
}

func TestHistogramNegativeAndHuge(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5 * time.Second) // clamped to bucket 0
	h.Observe(1 << 62)          // clamped to last bucket
	s := h.Snapshot()
	if s.Buckets[0] != 1 || s.Buckets[histBuckets-1] != 1 {
		t.Fatalf("clamping failed: %v", s.Buckets)
	}
	if s.Count != 2 {
		t.Fatalf("count = %d", s.Count)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	if q := (HistSnapshot{}).Quantile(0.99); q != 0 {
		t.Fatalf("empty quantile = %d, want 0", q)
	}
}

func TestLinkStatsClamp(t *testing.T) {
	var l LinkStats
	l.Sent(3)
	l.Sent(3)
	l.Recv(-1)
	l.Recv(999)
	l.Wrote()
	s := l.Snapshot()
	if s.Sent[3] != 2 {
		t.Fatalf("sent[3] = %d", s.Sent[3])
	}
	if s.Recv[linkKindSlots-1] != 2 {
		t.Fatalf("out-of-range kinds must clamp to last slot: %v", s.Recv)
	}
	if s.Writes != 1 {
		t.Fatalf("writes = %d, want 1", s.Writes)
	}
}

func TestFlightRecorderRingEviction(t *testing.T) {
	now := time.Unix(100, 0)
	fr := NewFlightRecorder(4, func() time.Time { return now })
	for i := 0; i < 10; i++ {
		fr.Record("ev", "b1", string(rune('a'+i)))
	}
	evs := fr.Events()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		want := string(rune('a' + 6 + i)) // oldest-first: g h i j
		if ev.Detail != want {
			t.Fatalf("evs[%d].Detail = %q, want %q", i, ev.Detail, want)
		}
	}
	if fr.Total() != 10 {
		t.Fatalf("total = %d, want 10", fr.Total())
	}
	if len(fr.Dump()) != 4 {
		t.Fatalf("dump len = %d", len(fr.Dump()))
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var fr *FlightRecorder
	fr.Record("x", "y", "z")
	fr.Recordf("x", "y", "%d", 1)
	if fr.Events() != nil || fr.Total() != 0 || len(fr.Dump()) != 0 {
		t.Fatal("nil recorder must be inert")
	}
}

func TestRegistryPrometheusRendering(t *testing.T) {
	fr := NewFlightRecorder(8, func() time.Time { return time.Unix(0, 0) })
	r := NewRegistry(fr)
	r.RegisterCounter("pubs_received", func() int64 { return 42 })
	r.RegisterGauge("queue_depth", func() int64 { return 7 })
	r.RegisterGaugeVec("link_queue_depth", func(emit func(string, int64)) {
		emit("b2", 3)
		emit("b1", 1)
	})
	r.Histogram("publish_match_ns").Observe(900 * time.Nanosecond)
	r.SetKindNamer(func(k int) string {
		if k == 5 {
			return "publish"
		}
		return "other"
	})
	r.Link("b2").Sent(5)
	r.Link("b2").Recv(5)
	r.Link("b2").Wrote()
	r.Link("b1").Recv(5) // never written to: no write-syscall series

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"probsum_pubs_received 42",
		"probsum_queue_depth 7",
		`probsum_link_queue_depth{id="b1"} 1`,
		`probsum_link_queue_depth{id="b2"} 3`,
		`probsum_publish_match_ns_bucket{le="1024"} 1`,
		`probsum_publish_match_ns_bucket{le="+Inf"} 1`,
		"probsum_publish_match_ns_sum 900",
		"probsum_publish_match_ns_count 1",
		`probsum_link_frames_sent_total{link="b2",kind="publish"} 1`,
		`probsum_link_frames_recv_total{link="b2",kind="publish"} 1`,
		"# TYPE probsum_link_write_syscalls_total counter",
		`probsum_link_write_syscalls_total{link="b2"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `probsum_link_write_syscalls_total{link="b1"}`) {
		t.Fatalf("zero write-syscall count rendered:\n%s", out)
	}
	if got := r.JSON().Links["b2"].Writes; got != 1 {
		t.Fatalf("json writes = %d, want 1", got)
	}
	// Deterministic: two scrapes render identically.
	var sb2 strings.Builder
	if err := r.WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Fatal("scrape output not deterministic")
	}
}

func TestRegistryJSONAndHandler(t *testing.T) {
	fr := NewFlightRecorder(8, func() time.Time { return time.Unix(9, 0) })
	r := NewRegistry(fr)
	r.RegisterCounter("pubs_received", func() int64 { return 2 })
	r.Histogram("notify_ns").Observe(time.Millisecond)
	fr.Record("suspect", "b1", "b3 missed ack")

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String()
	}

	if body := get("/metrics"); !strings.Contains(body, "probsum_pubs_received 2") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	var doc JSONMetrics
	if err := json.Unmarshal([]byte(get("/metrics.json")), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Counters["pubs_received"] != 2 {
		t.Fatalf("json counters = %v", doc.Counters)
	}
	if h := doc.Histograms["notify_ns"]; h.Count != 1 || h.P50Ns == 0 {
		t.Fatalf("json histogram = %+v", h)
	}
	if body := get("/flight"); !strings.Contains(body, "suspect") || !strings.Contains(body, "b3 missed ack") {
		t.Fatalf("/flight missing event:\n%s", body)
	}
	if body := get("/flight?json=1"); !strings.Contains(body, `"kind": "suspect"`) {
		t.Fatalf("/flight?json=1 missing event:\n%s", body)
	}
}

// TestRegistryConcurrency exercises registration, observation, and
// scraping from many goroutines under -race.
func TestRegistryConcurrency(t *testing.T) {
	fr := NewFlightRecorder(64, func() time.Time { return time.Unix(0, 0) })
	r := NewRegistry(fr)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := r.Histogram("h")
			l := r.Link("peer")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(time.Duration(i) * time.Nanosecond)
				l.Sent(i % 8)
				l.Recv(i % 8)
				fr.Record("tick", "g", "x")
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		_ = r.JSON()
		_ = fr.Dump()
	}
	close(stop)
	wg.Wait()
}
