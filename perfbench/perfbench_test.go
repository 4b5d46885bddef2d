package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"probsum/pubsub"
)

// tinyScale shrinks every input so a workload runs in well under a
// second.
func tinyScale() scale {
	sc := defaultScale()
	sc.Standing = 256
	sc.Pool = 512
	sc.ChurnK = 4
	sc.Instances = 40
	sc.Window = 10
	sc.MixedWindow = 10
	sc.MixedChurn = 20
	sc.Setups = 2
	return sc
}

func TestInputHashFollowsSeed(t *testing.T) {
	a, b, c := generate(7, tinyScale()), generate(7, tinyScale()), generate(8, tinyScale())
	if a.hash != b.hash {
		t.Fatalf("same seed, different input hashes %s and %s", a.hashString(), b.hashString())
	}
	if a.hash == c.hash {
		t.Fatalf("seeds 7 and 8 gave the same input hash %s", a.hashString())
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must honor.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSelfTestTinyScale runs every workload briefly, untraced and
// traced, and checks that each metric BENCHMARK.json names is printed
// with its unit and that the oracle and sim-versus-TCP checks ran and
// passed.
func TestSelfTestTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the TCP chain")
	}
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			o := options{workload: w.Name, seed: 3, seconds: 0.4, trace: trace, traceDir: t.TempDir(), sc: tinyScale()}
			rep, err := benchmark(context.Background(), o, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed, out.String())
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(out.String(), "metric "+m.Name+" ") {
					t.Errorf("%s trace=%v: metric %s not printed", w.Name, trace, m.Name)
				}
			}
			checks := []string{"check oracle: ", " 0 missing, 0 extra notifications"}
			if trace {
				checks = append(checks, "check equivalence: sim reproduces TCP delivery sets")
			}
			for _, c := range checks {
				if !strings.Contains(out.String(), c) {
					t.Errorf("%s trace=%v: output lacks %q\n%s", w.Name, trace, c, out.String())
				}
			}
		}
	}
}

// TestOracleFlagsWrongDeliveries feeds a phase notifications by hand:
// one publication fully delivered, one with a delivery to a
// subscription the oracle does not expect, one never delivered.
func TestOracleFlagsWrongDeliveries(t *testing.T) {
	in := generate(5, tinyScale())
	ph := newPubPhase(0, in, 0, time.Second, 8, 0, nil)
	var matching []int
	for seq := 0; seq < 8 && len(matching) < 3; seq++ {
		if len(ph.entry(seq).expect) > 0 {
			matching = append(matching, seq)
		}
	}
	if len(matching) < 3 {
		t.Fatal("pool has too few matching publications")
	}
	ph.base = time.Now()
	for seq := 0; seq <= matching[2]; seq++ {
		ph.due[seq], ph.n = 0, seq+1
		if len(ph.entry(seq).expect) > 0 {
			ph.matching++
		}
	}
	for _, idx := range ph.entry(matching[0]).expect {
		ph.observe(pubsub.Notification{PubID: ph.pubID(matching[0]), SubID: standingID(int(idx))}, time.Now())
	}
	wrong := int32(0)
	for ph.entry(matching[1]).expects(wrong) {
		wrong++
	}
	ph.observe(pubsub.Notification{PubID: ph.pubID(matching[1]), SubID: standingID(int(wrong))}, time.Now())
	r := ph.finish(0)
	if r.extra != 1 {
		t.Errorf("extra = %d, want 1", r.extra)
	}
	if r.failed != 2 {
		t.Errorf("failed = %d, want 2 (the wrongly and the never delivered publication)", r.failed)
	}
	if r.matching != 3 {
		t.Errorf("matching = %d, want 3", r.matching)
	}
}
