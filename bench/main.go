// Command bench is xpointdb's benchmark: seven workloads on two
// substrates, end-to-end metrics from an untraced pass and per-layer
// metrics from a traced pass plus layer probes. BENCHMARK.json at the
// repository root names the workloads and metrics; README.md in this
// directory says what each is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"text/tabwriter"
	"time"
)

// spec is BENCHMARK.json: the one place workload and metric names,
// units, directions and bounds are written down.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// outcome is what one run of one workload reports.
type outcome struct {
	workload  string
	traced    bool
	attempted int64
	failed    int64
	noisy     bool
	vals      values
}

// measure runs one workload once, with a canary before and after; if a
// canary says the machine was disturbed, the workload is run once more
// (with a single set-up) and that second run is what counts. An
// untraced run builds its starting state at least three times, for
// setup_s to be a median; a traced run, which does not report it, once.
func measure(workload string, seed int64, seconds float64, traced bool, traceDir string, can *canary) (*outcome, error) {
	setups := 3
	if traced {
		setups = 1
	}
	var r *run
	var out *outcome
	var earlierSetups []float64
	for attempt := 0; attempt < 2; attempt++ {
		before := can.run()
		r = &run{
			workload: workload, seed: seed, traced: traced, setups: setups,
			budget: time.Duration(seconds * float64(time.Second)),
		}
		if traced {
			r.rec = &recorder{workload: workload}
			r.refReps = 2
		}
		if err := workloadFuncs[workload](r); err != nil {
			return nil, fmt.Errorf("%s: %w", workload, err)
		}
		worst := math.Max(before, can.run())
		r.setupS = append(earlierSetups, r.setupS...)
		earlierSetups = r.setupS
		out = r.outcome()
		out.noisy = worst > can.limit()
		if traced {
			out.vals.set("bench.canary_ms", worst, 2)
		}
		if !out.noisy {
			break
		}
		if attempt == 0 {
			fmt.Fprintf(os.Stderr, "bench: %s noisy (canary %.1f ms against a calibrated %.1f ms): running it once more\n", workload, worst, can.min)
			setups = 1
		} else {
			fmt.Fprintf(os.Stderr, "bench: %s still noisy on the second run (canary %.1f ms); reporting it marked noisy\n", workload, worst)
		}
	}
	if traced {
		if err := runProbes(out.vals, seed); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		if traceDir != "" {
			path, err := r.rec.write(traceDir)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "bench: %s trace written to %s\n", workload, path)
		}
	}
	return out, nil
}

// outcome turns what the run measured into metric readings: the
// end-to-end ones from an untraced run, the per-layer ones from a
// traced run.
func (r *run) outcome() *outcome {
	o := &outcome{workload: r.workload, traced: r.traced, attempted: r.attempted, failed: r.failed, vals: values{}}
	if !r.traced {
		o.vals.set("setup_s", median(r.setupS), int64(len(r.setupS)))
		o.vals.set("ops_per_s", median(r.rates), int64(len(r.rates)))
		o.vals.set("p50_us", usec(median(r.p50s)), r.samples)
		o.vals.set("p99_us", usec(median(r.p99s)), r.samples)
		o.vals.set("cpu_us_per_op", usec(median(r.cpuPerOp)), r.clientOps)
		o.vals.set("write_amp", median(r.writeAmps), int64(len(r.writeAmps)))
		return o
	}
	r.layer.perLayer(o.vals, r.sim)
	traced := median(r.rates)
	o.vals.set("bench.traced_ops_per_s", traced, int64(len(r.rates)))
	if len(r.refRates) > 0 {
		o.vals.set("bench.trace_overhead_frac", ratio(traced, median(r.refRates)), int64(len(r.refRates)))
	}
	if r.sim {
		o.vals.set("sim.host_us_per_op", usec(ratio(float64(r.hostWall), float64(r.clientOps))), r.clientOps)
	}
	return o
}

// resultLine is the one-line result the driver reads.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricLine `json:"metrics"`
}

type metricLine struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"n,omitempty"`
}

// line renders an outcome with exactly the metrics BENCHMARK.json
// lists for its pass; a per-layer metric the workload does not reach
// reads 0. A reading BENCHMARK.json does not name is a bug here.
func (s *spec) line(o *outcome, withN bool) (resultLine, error) {
	defs := s.EndToEnd
	if o.traced {
		defs = s.PerLayer
	}
	l := resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricLine{}}
	for _, d := range defs {
		m := metricLine{Value: o.vals[d.Name].v, Unit: d.Unit}
		if withN {
			m.N = o.vals[d.Name].n
		}
		l.Metrics[d.Name] = m
	}
	for name := range o.vals {
		if _, ok := l.Metrics[name]; !ok {
			return l, fmt.Errorf("metric %q is measured but not listed in BENCHMARK.json", name)
		}
	}
	return l, nil
}

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload and print the driver's result line")
		workloads = flag.String("workloads", "", "comma-separated subset for the full run (default: all)")
		seed      = flag.Int64("seed", 1, "seed every input is generated from")
		seconds   = flag.Float64("seconds", 0, "how long each workload measures (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "with -workload: 0 = untraced pass, end-to-end metrics; 1 = traced pass and probes, per-layer metrics")
		traceDir  = flag.String("trace-dir", "", "write each traced workload's spans here as JSON lines")
		stability = flag.Bool("check-stability", false, "run the untraced pass twice and compare the two against the bounds")
		specPath  = flag.String("spec", "BENCHMARK.json", "path of BENCHMARK.json")
	)
	flag.Parse()
	sp, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	can := calibrateCanary()

	if *workload != "" {
		if !sp.hasWorkload(*workload) || workloadFuncs[*workload] == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		o, err := measure(*workload, *seed, *seconds, *trace == 1, *traceDir, can)
		if err != nil {
			fatal(err)
		}
		l, err := sp.line(o, false)
		if err != nil {
			fatal(err)
		}
		printTable(os.Stderr, sp, []*outcome{o})
		if err := json.NewEncoder(os.Stdout).Encode(l); err != nil {
			fatal(err)
		}
		if !l.Correct {
			os.Exit(1)
		}
		return
	}

	var names []string
	for _, w := range sp.Workloads {
		if *workloads == "" || strings.Contains(","+*workloads+",", ","+w.Name+",") {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("-workloads %q names no workload of BENCHMARK.json", *workloads))
	}
	pass := func(traced bool) []*outcome {
		var outs []*outcome
		for _, name := range names {
			o, err := measure(name, *seed, *seconds, traced, *traceDir, can)
			if err != nil {
				fatal(err)
			}
			outs = append(outs, o)
		}
		return outs
	}

	if *stability {
		// The two runs of a workload are made back to back, so that a slow
		// spell of the machine falls on both.
		var a, b []*outcome
		for _, name := range names {
			for _, side := range []*[]*outcome{&a, &b} {
				o, err := measure(name, *seed, *seconds, false, "", can)
				if err != nil {
					fatal(err)
				}
				*side = append(*side, o)
			}
		}
		printTable(os.Stderr, sp, a)
		printTable(os.Stderr, sp, b)
		if !compareStability(os.Stdout, sp, a, b) {
			os.Exit(1)
		}
		return
	}

	outs := append(pass(false), pass(true)...)
	printTable(os.Stderr, sp, outs)
	doc := map[string]map[string]any{}
	correct := true
	for _, o := range outs {
		l, err := sp.line(o, true)
		if err != nil {
			fatal(err)
		}
		correct = correct && l.Correct
		w := doc[o.workload]
		if w == nil {
			w = map[string]any{}
			doc[o.workload] = w
		}
		for name, m := range l.Metrics {
			w[name] = m
		}
		key := "untraced"
		if o.traced {
			key = "traced"
		}
		w[key] = map[string]any{"attempted": o.attempted, "failed": o.failed, "noisy": o.noisy,
			"error_rate": ratio(float64(o.failed), float64(o.attempted))}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// printTable writes the outcomes as a workload × metric table.
func printTable(f *os.File, sp *spec, outs []*outcome) {
	w := tabwriter.NewWriter(f, 0, 0, 2, ' ', 0)
	for _, o := range outs {
		defs, pass := sp.EndToEnd, "untraced"
		if o.traced {
			defs, pass = sp.PerLayer, "traced"
		}
		note := ""
		if o.noisy {
			note = "  NOISY"
		}
		fmt.Fprintf(w, "%s (%s)\tattempted %d\tfailed %d%s\t\n", o.workload, pass, o.attempted, o.failed, note)
		for _, d := range defs {
			r := o.vals[d.Name]
			if o.traced && r.v == 0 && r.n == 0 {
				continue // a layer this workload does not reach
			}
			fmt.Fprintf(w, "  %s\t%.6g\t%s\tn=%d\t\n", d.Name, r.v, d.Unit, r.n)
		}
	}
	w.Flush()
}

// compareStability prints, for every workload and end-to-end metric,
// how far the second pass is from the first beside the metric's bound,
// and reports whether all are within it.
func compareStability(f *os.File, sp *spec, a, b []*outcome) bool {
	ok := true
	w := tabwriter.NewWriter(f, 0, 0, 2, ' ', 0)
	fmt.Fprintf(w, "workload\tmetric\tfirst\tsecond\tdifference\tbound\t\n")
	for i := range a {
		for _, d := range sp.EndToEnd {
			x, y := a[i].vals[d.Name].v, b[i].vals[d.Name].v
			diff := math.Abs(y-x) / x
			verdict := ""
			if diff > d.Bound {
				verdict, ok = "OVER", false
			}
			fmt.Fprintf(w, "%s\t%s\t%.6g\t%.6g\t%.1f%%\t%.0f%%\t%s\n", a[i].workload, d.Name, x, y, 100*diff, 100*d.Bound, verdict)
		}
		if a[i].failed+b[i].failed > 0 {
			fmt.Fprintf(w, "%s\tfailed ops\t%d\t%d\t\t0\tOVER\n", a[i].workload, a[i].failed, b[i].failed)
			ok = false
		}
	}
	w.Flush()
	return ok
}
