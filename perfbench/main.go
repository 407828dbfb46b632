// Command perfbench is the repository's end-to-end benchmark. It drives the
// public secidx API over seeded workloads from a single process, checks
// every answer against the generated column, and prints its metrics; the
// last line of its output is one JSON object.
//
//	go run . --workload scan --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
// the workload untraced for half the time and traced for the other half,
// records a span around every public call, writes the spans to the work
// directory, and reports the per-layer metrics derived from them together
// with the tracing overhead. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// metric is one reported number: its name in BENCHMARK.json and its unit.
type metric struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports. Each workload maps
// its own operations onto the shared op_* and aux_us names (see README.md)
// and also prints them under workload-specific names.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"index_bits_per_row", "bits"},
	{"success_rate", "ratio"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"op_per_s", "1/s"},
	{"aux_us", "us"},
}

// perLayer lists the metrics every traced run reports. A layer a workload
// does not reach reports 0.
var perLayer = []metric{
	{"core.build_s", "s"},
	{"core.query_call_p50_us", "us"},
	{"core.query_call_p99_us", "us"},
	{"core.blocks_per_query", "count"},
	{"core.read_bits_per_answer_bit", "ratio"},
	{"core.approx_candidate_ratio", "ratio"},
	{"core.approx_fp_rate", "ratio"},
	{"cbitmap.answer_bits_per_row", "bits"},
	{"cbitmap.consume_ns_per_row", "ns"},
	{"iomodel.cache_hit_rate", "ratio"},
	{"iomodel.block_reads_per_request", "count"},
	{"iomodel.shared_saved_frac", "ratio"},
	{"shard.batch_service_p50_us", "us"},
	{"shard.batch_service_p99_us", "us"},
	{"shard.direct_query_us", "us"},
	{"serve.queue_wait_p50_us", "us"},
	{"serve.queue_wait_p99_us", "us"},
	{"serve.batch_size_mean", "count"},
	{"serve.shed_frac", "ratio"},
	{"serve.flush_frac.size", "ratio"},
	{"serve.flush_frac.overlap", "ratio"},
	{"serve.flush_frac.wait", "ratio"},
	{"serve.flush_frac.deadline", "ratio"},
	{"serve.queue_max", "count"},
	{"serve.gen_lag_p99_us", "us"},
	{"serve.max_qps", "1/s"},
	{"container.write_s", "s"},
	{"container.open_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

// config is one run's parameters.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	dir     string // scratch directory for index files and spans
}

// duration is the run's measuring time scaled by frac.
func (c config) duration(frac float64) time.Duration {
	return time.Duration(c.seconds * frac * float64(time.Second))
}

// report collects one run's outcome.
type report struct {
	settings  []string
	attempted int64
	failed    int64 // calls that returned an unexpected error
	wrong     int64 // answers that disagree with the oracle
	refused   int64 // requests shed or expired where the load is meant to be served
	// uncounted are attempted operations left out of error_rate's
	// denominator: requests offered above the nominal serving rate, where
	// shedding is the server's job, and the direct probes.
	uncounted int64
	e2e       map[string]float64
	named     []namedValue
	layer     map[string]float64
}

type namedValue struct {
	name, unit string
	value      float64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) setting(format string, args ...any) {
	r.settings = append(r.settings, fmt.Sprintf(format, args...))
}

// metric records an end-to-end metric under its shared name and prints it
// under the workload's own name too.
func (r *report) metric(shared, own, unit string, v float64) {
	r.e2e[shared] = v
	if own != shared {
		r.named = append(r.named, namedValue{own, unit, v})
	}
}

// also prints a workload-specific metric that has no shared name.
func (r *report) also(name, unit string, v float64) {
	r.named = append(r.named, namedValue{name, unit, v})
}

// errorRate is the share of the counted operations that failed, were
// refused below the serving limit, or returned a wrong answer. A failure or
// wrong answer among the uncounted operations still counts as an error.
func (r *report) errorRate() float64 {
	return min(ratio(float64(r.failed+r.wrong+r.refused), float64(r.attempted-r.uncounted)), 1)
}

// workloads maps --workload names to their runners. ingest is runnable but
// not among BENCHMARK.json's workloads: its timings were not steady on a
// shared host (see README.md).
var workloads = map[string]func(config, *report) error{
	"scan":   runScan,
	"serve":  runServe,
	"ingest": runIngest,
}

func main() { os.Exit(realMain()) }

func realMain() int {
	name := flag.String("workload", "", "workload to run: scan, serve or ingest")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	dir := flag.String("dir", "", "scratch directory (default: a new temporary directory)")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload scan|serve|ingest, --seconds > 0, --trace 0|1")
		return 2
	}
	c := config{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir}
	if c.dir == "" {
		d, err := os.MkdirTemp("", "perfbench-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		defer os.RemoveAll(d)
		c.dir = d
	} else if err := os.MkdirAll(c.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	rep := newReport()
	rep.settings = hostSettings(c.dir)
	rep.setting("workload=%s seed=%d seconds=%g trace=%v", *name, c.seed, c.seconds, c.trace)
	ref := medianDur(calibrate(calibrations))
	rep.setting("host: reference sort of %d keys took %v (median of %d), for comparing hosts; no metric is scaled by it",
		refKeys, ref, calibrations)
	if err := run(c, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.e2e["peak_rss_mb"] = peakRSSMB()
	rep.e2e["success_rate"] = 1 - rep.errorRate()
	out, err := rep.print(os.Stdout, c.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !out.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answers:", rep.wrong)
		return 1
	}
	return 0
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the settings and every metric as text, then the JSON result
// line: the end-to-end metrics, or with trace the per-layer ones.
func (r *report) print(w io.Writer, trace bool) (result, error) {
	for _, s := range r.settings {
		fmt.Fprintln(w, "# "+s)
	}
	res := result{
		Correct:   r.wrong == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed + r.wrong + r.refused,
		Metrics:   map[string]metricValue{},
	}
	fmt.Fprintf(w, "attempted = %d (%d not counted in error_rate)  failed = %d  wrong = %d  refused = %d\n",
		r.attempted, r.uncounted, r.failed, r.wrong, r.refused)
	fmt.Fprintf(w, "%-34s %14.6g %s\n", "error_rate", r.errorRate(), "ratio")
	list, values := endToEnd, r.e2e
	if trace {
		list, values = perLayer, r.layer
	} else {
		for _, m := range endToEnd {
			if _, ok := r.e2e[m.name]; !ok {
				return res, fmt.Errorf("workload did not measure %s", m.name)
			}
		}
	}
	for _, nv := range r.named {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", nv.name, nv.value, nv.unit)
	}
	for _, m := range list {
		v := values[m.name]
		fmt.Fprintf(w, "%-34s %14.6g %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	_, err = fmt.Fprintln(w, string(b))
	return res, err
}
