// Command perfbench is the repository benchmark. It runs one workload
// against a three-broker chain B1–B2–B3: the brokers are in-process
// pubsub.TCPTransport listeners talking over loopback TCP, and the load
// comes from the same process over two client connections, a publisher
// at B1 and a subscriber at B3. Every delivery is judged against a
// brute-force oracle.
//
//	bash perfbench/run.sh --workload pub-steady --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload untraced and traced, replays the traced run's
// inputs through the simulator, a coverage table and the checker, and
// prints the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
// code is non-zero on any oracle or sim-versus-TCP mismatch.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one named figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	sc       scale
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{sc: defaultScale()}
	fs.StringVar(&o.workload, "workload", "", "workload: pub-steady | sub-churn | mixed")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 30, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1: traced run with per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", ".bench_build/trace", "directory for span dumps of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceFlag == 1
	rep, err := benchmark(context.Background(), o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		fmt.Fprintln(stderr, "perfbench: output check failed")
		return 1
	}
	return 0
}

// benchmark generates the inputs, runs the workload and checks it.
func benchmark(ctx context.Context, o options, out io.Writer) (*report, error) {
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloads)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	in := generate(o.seed, o.sc)
	fmt.Fprintf(out, "perfbench workload=%s seed=%d inputs=%s trace=%v\n", o.workload, o.seed, in.hashString(), o.trace)
	fmt.Fprintf(out, "system: brokers B1-B2-B3 as in-process pubsub.TCPTransport over loopback TCP; policy group, delta 1e-6\n")
	fmt.Fprintf(out, "load: %d client connections from this process (publisher at B1, subscriber at B3)\n", loadConnections)
	dur := time.Duration(o.seconds * float64(time.Second))
	var rep *report
	var err error
	if o.trace {
		rep, err = tracedRun(ctx, o, in, dur, out)
	} else {
		var r *run
		if r, err = execute(ctx, o.workload, in, o.sc, dur, nil); err == nil {
			rep = r.report(out)
			rep.Metrics = r.endToEnd(rep)
		}
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "metric %-34s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	return rep, nil
}

// report judges the run: extra deliveries make it incorrect, missing
// ones count as failed operations.
func (r *run) report(out io.Writer) *report {
	rep := &report{Correct: true}
	for _, p := range []phaseResult{r.main, r.sat} {
		rep.Attempted += p.attempted
		rep.Failed += p.failed
		if p.extra > 0 {
			rep.Correct = false
		}
	}
	rep.Attempted += int(r.c.subsSent + r.c.unsubsSent)
	judged := r.main.matching + r.sat.matching
	fmt.Fprintf(out, "check oracle: %d matching publications judged, %d missing, %d extra notifications\n",
		judged, r.main.failed+r.sat.failed, r.main.extra+r.sat.extra)
	return rep
}

// endToEnd is the user-visible figure set, printed for every workload.
// On a shared host the time other tenants take (steal) varies from run
// to run. Throughputs are therefore per CPU-second of the process, which
// excludes steal, and latency is the share delivered within the limit:
// steal moved every latency percentile by more than the bounds allow.
func (r *run) endToEnd(rep *report) map[string]metric {
	return map[string]metric{
		"setup_s":           {median(r.setupS), "s"},
		"notify_in_slo":     {r.main.inSLO(r.sc.SLOms), "ratio"},
		"pub_per_cpu_s":     {r.sat.ratePerCPU, "1/s"},
		"admit_per_cpu_s":   {r.admitCPU, "1/s"},
		"sub_forward_ratio": {float64(r.totals.SubsForwarded) / float64(r.c.subsSent), "ratio"},
		"heap_mb":           {r.heapMB, "MB"},
		"success_ratio":     {1 - float64(rep.Failed)/float64(rep.Attempted), "ratio"},
	}
}

// percentile is the nearest-rank percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*p/100+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
