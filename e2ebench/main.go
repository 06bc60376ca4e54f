// Command e2ebench is the repository's end-to-end benchmark. One
// closed-loop client in one process calls the analysis engines through the
// repro facade, at their default worker count, and checks every answer
// against the paper's theorems.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash e2ebench/run.sh --workload cold-verdict --seed 1 --seconds 40 --trace 0
//
// Workloads: cold-verdict, warm-query, paper-suite (see README.md). With
// --trace 0 it prints the end-to-end metrics; with --trace 1 it wraps every
// facade call in a span and prints the per-layer metrics instead. The last
// line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics. Each run also writes a result file with
// the host fingerprint to --out, and a traced run writes its spans there.
//
//	bash e2ebench/run.sh --compare OLD_DIR NEW_DIR
//
// compares the result files of two sets of runs, and refuses when their
// hosts or benchmark sources differ.
package main

import (
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "cold-verdict", "workload: cold-verdict, warm-query or paper-suite")
	seed := fs.Int64("seed", 1, "workload seed; the same seed deals the same op stream")
	seconds := fs.Int("seconds", 40, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", benchDir, "results"), "directory for result and span files")
	compare := fs.Bool("compare", false, "compare the result files of two directories given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "e2ebench: --compare takes two result directories")
			return 2
		}
		return compareDirs(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be positive, --trace 0 or 1")
		return 2
	}
	w, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	fp := fingerprint{Host: hostFingerprint(), Commit: commit()}
	if fp.SourceSHA256, fp.BenchSHA256, err = sourceDigests("."); err != nil {
		fmt.Fprintln(stderr, "e2ebench: hashing sources:", err)
		return 1
	}
	res := &result{
		Fingerprint: fp, Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *traceFlag,
		Metrics: make(map[string]metric), Notes: make(map[string]string),
	}
	m := &measurement{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, stderr: stderr}
	var tr *tracer
	if *traceFlag == 1 {
		tr = newTracer()
	}
	if err := m.measure(tr, res); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	base := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *traceFlag))
	if tr != nil {
		if err := writeSpans(tr, base+".spans.tsv.gz"); err != nil {
			fmt.Fprintln(stderr, "e2ebench: writing spans:", err)
			return 1
		}
	}
	if err := writeJSON(base+".json", res); err != nil {
		fmt.Fprintln(stderr, "e2ebench: writing result:", err)
		return 1
	}
	printResult(stdout, res)
	return 0
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "cold-verdict":
		return newColdVerdict(), nil
	case "warm-query":
		return newWarmQuery(), nil
	case "paper-suite":
		return paperSuite{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// measurement runs one workload: set-up, then the timed phase, dealing
// seeded shuffles of the workload's deck until the window has passed. A
// started deck is always finished, so every run holds whole decks.
type measurement struct {
	w      workload
	seed   int64
	window time.Duration
	stderr io.Writer

	attempted, failed int
	errorsShown       int
}

// record counts one checked op and reports the first few failures.
func (m *measurement) record(k int, ans any, err error) {
	m.attempted++
	if err == nil {
		err = m.w.check(k, ans)
	}
	if err == nil {
		return
	}
	m.failed++
	if m.errorsShown < 5 {
		m.errorsShown++
		fmt.Fprintf(m.stderr, "e2ebench: op failed: %v\n", err)
	}
}

// setupRuns is how many times a run sets its workload up; setup_s is the
// median, which keeps one slow set-up from moving the metric.
const setupRuns = 3

// measure fills res with the end-to-end metrics (tr == nil) or the
// per-layer metrics of a traced run.
func (m *measurement) measure(tr *tracer, res *result) error {
	plain := &client{}
	setupS := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		err := m.w.setup(plain)
		setupS = append(setupS, time.Since(start).Seconds())
		if err != nil {
			// The queries of a workload whose set-up failed have nothing to
			// be checked against; the run is reported as incorrect.
			m.record(0, nil, fmt.Errorf("set-up: %w", err))
			m.finish(res)
			return nil
		}
	}
	if tr == nil {
		m.timed(plain, res)
		put(res, "setup_s", median(setupS), "s")
		res.Notes["setup_s"] = fmt.Sprintf("median of %d set-ups", setupRuns)
	} else {
		if err := m.traced(plain, &client{tr: tr}, res); err != nil {
			return err
		}
	}
	m.finish(res)
	return nil
}

func (m *measurement) finish(res *result) {
	res.Attempted, res.Failed = m.attempted, m.failed
	res.Correct = m.failed == 0 && m.attempted > 0
}

// timed is the untraced phase: op latency, throughput, CPU and allocation.
func (m *measurement) timed(c *client, res *result) {
	rng := rand.New(rand.NewSource(m.seed))
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	readAllocs := func() uint64 { metrics.Read(allocs); return allocs[0].Value.Uint64() }
	var lat []float64
	var busy, cpu time.Duration
	var allocBytes uint64
	start := time.Now()
	for time.Since(start) < m.window {
		for _, k := range rng.Perm(m.w.size()) {
			c0, a0 := cpuNs(), readAllocs()
			t0 := time.Now()
			ans, err := m.w.run(c, k)
			d := time.Since(t0)
			allocBytes += readAllocs() - a0
			cpu += time.Duration(cpuNs() - c0)
			busy += d
			lat = append(lat, float64(d)/1e6)
			m.record(k, ans, err)
		}
	}
	ops := float64(len(lat))
	put(res, "ops_per_s", ops/busy.Seconds(), "1/s")
	put(res, "op_ms_p50", percentile(lat, 0.5), "ms")
	put(res, "op_ms_p90", percentile(lat, 0.9), "ms")
	put(res, "cpu_ms_per_op", float64(cpu)/1e6/ops, "ms")
	put(res, "alloc_mb_per_op", float64(allocBytes)/1e6/ops, "MB")
	put(res, "max_rss_mb", float64(maxRSSBytes())/1e6, "MB")
	res.Notes["ops"] = fmt.Sprintf("%d ops in %d whole decks of %d; busy %.3f s of %.3f s wall (checks excluded)",
		len(lat), len(lat)/m.w.size(), m.w.size(), busy.Seconds(), time.Since(start).Seconds())
	res.Notes["op_ms_p50"] = fmt.Sprintf("nearest rank over n=%d ops", len(lat))
	res.Notes["op_ms_p90"] = fmt.Sprintf("nearest rank over n=%d ops, %d beyond", len(lat), len(lat)-int(0.9*ops+0.999999))
}

// traced is the traced phase. Each op of the stream runs twice, once
// plain and once traced, in alternating order, so trace.overhead_ratio
// compares the same ops under the same conditions.
func (m *measurement) traced(plain, tc *client, res *result) error {
	tr := tc.tr
	rng := rand.New(rand.NewSource(m.seed))
	var plainNs int64
	pair := 0
	start := time.Now()
	for time.Since(start) < m.window {
		for _, k := range rng.Perm(m.w.size()) {
			for rep := 0; rep < 2; rep++ {
				if (rep == 0) == (pair%2 == 0) {
					t0 := time.Now()
					ans, err := m.w.run(plain, k)
					plainNs += int64(time.Since(t0))
					m.record(k, ans, err)
					continue
				}
				root := tr.beginOp()
				ans, err := m.w.run(tc, k)
				if _, terr := tr.endOp(root); terr != nil {
					return fmt.Errorf("trace does not reconcile: %w", terr)
				}
				m.record(k, ans, err)
			}
			pair++
		}
	}
	ops := float64(tr.ops)
	perOp := func(ns int64) float64 { return float64(ns) / 1e6 / ops }
	ex, warm := tr.acc[layerExplore], tr.acc[layerExploreWarm]
	put(res, "core.explore.ms_per_op", perOp(ex.selfNs), "ms")
	put(res, "core.explore.states_per_op", float64(ex.states)/ops, "count")
	put(res, "core.explore.edges_per_op", float64(ex.edges)/ops, "count")
	put(res, "core.explore.us_per_edge", ratio(float64(ex.selfNs)/1e3, float64(ex.edges)), "us")
	put(res, "core.explore.allocs_per_state", ratio(float64(ex.allocs), float64(ex.states)), "count")
	put(res, "core.explore.cpu_per_wall", ratio(float64(ex.cpuNs), float64(ex.wallNs)), "ratio")
	put(res, "core.intern.hit_ratio", ratio(float64(ex.hits+warm.hits), float64(ex.hits+warm.hits+ex.enums+warm.enums)), "ratio")
	put(res, "core.explore_warm.ms_per_op", perOp(warm.selfNs), "ms")
	put(res, "core.explore_warm.us_per_state", ratio(float64(warm.selfNs)/1e3, float64(warm.states)), "us")
	field := tr.acc[layerField]
	put(res, "valence.field.ms_per_op", perOp(field.selfNs), "ms")
	put(res, "valence.field.ns_per_node", ratio(float64(field.selfNs), float64(field.nodes)), "ns")
	cert := tr.acc[layerCertify]
	put(res, "valence.certify.ms_per_op", perOp(cert.selfNs), "ms")
	put(res, "valence.certify.visits_per_op", float64(cert.visits)/ops, "count")
	put(res, "knowledge.classes.ms_per_op", perOp(tr.acc[layerKnowledge].selfNs), "ms")
	put(res, "valence.certify_recursive.ms_per_op", perOp(tr.acc[layerCertifyRec].selfNs), "ms")
	orc := tr.acc[layerOracle]
	put(res, "valence.oracle.ms_per_op", perOp(orc.selfNs), "ms")
	put(res, "valence.oracle.memo_hit_ratio", ratio(float64(orc.memoHits), float64(orc.queries)), "ratio")
	put(res, "simplex.kthick.ms_per_op", perOp(tr.acc[layerKThick].selfNs), "ms")
	put(res, "decision.certify_task.ms_per_op", perOp(tr.acc[layerCertifyTask].selfNs), "ms")
	put(res, "runtime.gc.cycles_per_op", float64(tr.gcCycles)/ops, "count")
	put(res, "runtime.gc.pause_ms_per_op", tr.gcPauseNs/1e6/ops, "ms")
	put(res, "unattributed.ms_per_op", perOp(tr.unattributed), "ms")
	put(res, "trace.op_ms_per_op", perOp(tr.opNs), "ms")
	put(res, "trace.overhead_ratio", ratio(float64(tr.opNs), float64(plainNs)), "ratio")

	// The layers' self times and the unattributed remainder add up to the
	// traced op wall; endOp checked it op by op, and the sums are checked
	// again here as the metrics report them.
	var layersNs int64
	for _, a := range tr.acc {
		layersNs += a.selfNs
	}
	if layersNs+tr.unattributed != tr.opNs {
		return fmt.Errorf("trace does not reconcile: layers %d ns + unattributed %d ns != op wall %d ns",
			layersNs, tr.unattributed, tr.opNs)
	}
	res.Notes["trace"] = fmt.Sprintf("%d traced ops paired with %d plain ops; layers %.4f ms + unattributed %.4f ms = op wall %.4f ms per op",
		tr.ops, m.attempted-tr.ops, perOp(layersNs), perOp(tr.unattributed), perOp(tr.opNs))
	return nil
}

func put(res *result, name string, v float64, unit string) {
	res.Metrics[name] = metric{Value: v, Unit: unit}
}

// writeSpans writes the traced run's spans, gzip-compressed.
func writeSpans(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	if err := tr.writeSpans(zw); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printResult prints every metric by name with its unit and notes, then the
// one-line JSON summary as the last line.
func printResult(w io.Writer, res *result) {
	fp := res.Fingerprint
	fmt.Fprintf(w, "e2ebench workload=%s seed=%d seconds=%d trace=%d\n", res.Workload, res.Seed, res.Seconds, res.Trace)
	fmt.Fprintf(w, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%.12s bench=%.12s\n",
		fp.Host.CPUModel, fp.Host.NumCPU, fp.Host.GOMAXPROCS, fp.Host.GoVersion, fp.Commit, fp.SourceSHA256, fp.BenchSHA256)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mt := res.Metrics[n]
		fmt.Fprintf(w, "%-38s %14.6g %-6s %s\n", n, mt.Value, mt.Unit, res.Notes[n])
	}
	for _, k := range []string{"ops", "trace"} {
		if note, ok := res.Notes[k]; ok {
			fmt.Fprintf(w, "%s: %s\n", k, note)
		}
	}
	fmt.Fprintf(w, "ops_failed %d of %d\n", res.Failed, res.Attempted)
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Fprintln(w, string(line))
}
