package obs

// Exposition: Prometheus text format and JSON, plus an http.Handler
// serving /metrics (text), /metrics.json, and /flight. Hand-rolled on
// the stdlib — the whole point of internal/obs is zero dependencies.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// namePrefix is prepended to every exported series.
const namePrefix = "probsum_"

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

func (s regSnapshot) kind(i int) string {
	if s.kindName != nil {
		return s.kindName(i)
	}
	return "kind_" + strconv.Itoa(i)
}

// WritePrometheus renders every registered series in the Prometheus
// text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.snapshot()
	var b strings.Builder

	for _, n := range s.counterNames {
		fmt.Fprintf(&b, "# TYPE %s%s counter\n%s%s %d\n", namePrefix, n, namePrefix, n, s.counters[n]())
	}
	for _, n := range s.gaugeNames {
		fmt.Fprintf(&b, "# TYPE %s%s gauge\n%s%s %d\n", namePrefix, n, namePrefix, n, s.gauges[n]())
	}
	for _, n := range s.vecNames {
		fmt.Fprintf(&b, "# TYPE %s%s gauge\n", namePrefix, n)
		// Collect then sort so scrapes are deterministic.
		type lv struct {
			label string
			v     int64
		}
		var rows []lv
		s.vecs[n](func(label string, v int64) { rows = append(rows, lv{label, v}) })
		sort.Slice(rows, func(i, j int) bool { return rows[i].label < rows[j].label })
		for _, row := range rows {
			fmt.Fprintf(&b, "%s%s{id=%q} %d\n", namePrefix, n, escapeLabel(row.label), row.v)
		}
	}
	for _, n := range s.histNames {
		h := s.hists[n]
		fmt.Fprintf(&b, "# TYPE %s%s histogram\n", namePrefix, n)
		cum := uint64(0)
		for i, c := range h.Buckets {
			cum += c
			if c == 0 {
				continue
			}
			fmt.Fprintf(&b, "%s%s_bucket{le=\"%d\"} %d\n", namePrefix, n, BucketUpperNs(i), cum)
		}
		fmt.Fprintf(&b, "%s%s_bucket{le=\"+Inf\"} %d\n", namePrefix, n, h.Count)
		fmt.Fprintf(&b, "%s%s_sum %d\n", namePrefix, n, h.SumNs)
		fmt.Fprintf(&b, "%s%s_count %d\n", namePrefix, n, h.Count)
	}
	if len(s.linkNames) > 0 {
		fmt.Fprintf(&b, "# TYPE %slink_frames_sent_total counter\n", namePrefix)
		s.writeLinkDir(&b, "sent", func(l LinkSnapshot) [linkKindSlots]uint64 { return l.Sent })
		fmt.Fprintf(&b, "# TYPE %slink_write_syscalls_total counter\n", namePrefix)
		for _, name := range s.linkNames {
			if w := s.links[name].Writes; w != 0 {
				fmt.Fprintf(&b, "%slink_write_syscalls_total{link=%q} %d\n", namePrefix, escapeLabel(name), w)
			}
		}
		fmt.Fprintf(&b, "# TYPE %slink_frames_recv_total counter\n", namePrefix)
		s.writeLinkDir(&b, "recv", func(l LinkSnapshot) [linkKindSlots]uint64 { return l.Recv })
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (s regSnapshot) writeLinkDir(b *strings.Builder, dir string, pick func(LinkSnapshot) [linkKindSlots]uint64) {
	for _, name := range s.linkNames {
		counts := pick(s.links[name])
		for k, c := range counts {
			if c == 0 {
				continue
			}
			fmt.Fprintf(b, "%slink_frames_%s_total{link=%q,kind=%q} %d\n",
				namePrefix, dir, escapeLabel(name), escapeLabel(s.kind(k)), c)
		}
	}
}

// JSONHistogram is the JSON form of one histogram.
type JSONHistogram struct {
	Count  uint64 `json:"count"`
	SumNs  int64  `json:"sum_ns"`
	MaxNs  int64  `json:"max_ns"`
	P50Ns  int64  `json:"p50_ns"`
	P99Ns  int64  `json:"p99_ns"`
	P999Ns int64  `json:"p999_ns"`
}

// JSONLink is the JSON form of one link's frame counts, keyed by
// wire-kind name.
type JSONLink struct {
	Sent   map[string]uint64 `json:"sent,omitempty"`
	Recv   map[string]uint64 `json:"recv,omitempty"`
	Writes uint64            `json:"writes,omitempty"` // write syscalls carrying Sent
}

// JSONMetrics is the /metrics.json document.
type JSONMetrics struct {
	Counters   map[string]int64            `json:"counters,omitempty"`
	Gauges     map[string]int64            `json:"gauges,omitempty"`
	GaugeVecs  map[string]map[string]int64 `json:"gauge_vecs,omitempty"`
	Histograms map[string]JSONHistogram    `json:"histograms,omitempty"`
	Links      map[string]JSONLink         `json:"links,omitempty"`
}

// JSON builds the /metrics.json document.
func (r *Registry) JSON() JSONMetrics {
	s := r.snapshot()
	out := JSONMetrics{
		Counters:   make(map[string]int64, len(s.counterNames)),
		Gauges:     make(map[string]int64, len(s.gaugeNames)),
		GaugeVecs:  make(map[string]map[string]int64, len(s.vecNames)),
		Histograms: make(map[string]JSONHistogram, len(s.histNames)),
		Links:      make(map[string]JSONLink, len(s.linkNames)),
	}
	for _, n := range s.counterNames {
		out.Counters[n] = s.counters[n]()
	}
	for _, n := range s.gaugeNames {
		out.Gauges[n] = s.gauges[n]()
	}
	for _, n := range s.vecNames {
		m := make(map[string]int64)
		s.vecs[n](func(label string, v int64) { m[label] = v })
		out.GaugeVecs[n] = m
	}
	for _, n := range s.histNames {
		h := s.hists[n]
		out.Histograms[n] = JSONHistogram{
			Count: h.Count, SumNs: h.SumNs, MaxNs: h.MaxNs,
			P50Ns: h.Quantile(0.50), P99Ns: h.Quantile(0.99), P999Ns: h.Quantile(0.999),
		}
	}
	for _, name := range s.linkNames {
		l := s.links[name]
		jl := JSONLink{Sent: map[string]uint64{}, Recv: map[string]uint64{}, Writes: l.Writes}
		for k, c := range l.Sent {
			if c != 0 {
				jl.Sent[s.kind(k)] = c
			}
		}
		for k, c := range l.Recv {
			if c != 0 {
				jl.Recv[s.kind(k)] = c
			}
		}
		out.Links[name] = jl
	}
	return out
}

// Handler returns an http.Handler serving:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  JSON document (counters, gauges, histograms, links)
//	/flight        flight-recorder dump (text; ?json=1 for JSON)
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.JSON())
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, req *http.Request) {
		fr := r.Flight()
		if req.URL.Query().Get("json") != "" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(fr.Events())
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, line := range fr.Dump() {
			fmt.Fprintln(w, line)
		}
	})
	return mux
}
