package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	layers "repro"
)

// opIndex returns the catalogue index of (n, t, rounds).
func opIndex(t *testing.T, cat []config, want config) int {
	t.Helper()
	for k, c := range cat {
		if c == want {
			return k
		}
	}
	t.Fatalf("%v not in the catalogue", want)
	return -1
}

// A planted wrong expectation must be counted as a failed op: the verdict
// of the certified (t+1)-round instance is checked as if it came from the
// t-round instance, which Corollary 6.3 says must be refuted.
func TestPlantedWrongExpectationCountsAsFailed(t *testing.T) {
	w := newColdVerdict()
	k := opIndex(t, w.cat, config{4, 2, 3})
	ans, err := w.run(&client{}, k)
	if err != nil {
		t.Fatal(err)
	}
	m := &measurement{w: w, stderr: io.Discard}
	m.record(k, ans, nil)
	if m.failed != 0 {
		t.Fatalf("the true expectation failed")
	}
	w.cat[k].rounds-- // planted: expect the t-round verdict
	m.record(k, ans, nil)
	res := &result{}
	m.finish(res)
	if res.Attempted != 2 || res.Failed != 1 || res.Correct {
		t.Fatalf("planted wrong expectation: attempted=%d failed=%d correct=%v, want 2, 1, false",
			res.Attempted, res.Failed, res.Correct)
	}
}

// A refutation witness that does not replay through its model, or that
// replays but does not end in the violation it names, must be rejected.
func TestCorruptedWitnessFails(t *testing.T) {
	w := newColdVerdict()
	k := opIndex(t, w.cat, config{4, 2, 2})
	ans, err := w.run(&client{}, k)
	if err != nil {
		t.Fatal(err)
	}
	v := ans.(verdict)
	if err := w.check(k, v); err != nil {
		t.Fatalf("genuine witness rejected: %v", err)
	}
	if v.w.Kind != layers.AgreementViolation || v.w.Exec.Len() == 0 {
		t.Fatalf("want a non-empty agreement witness, got %s", v.w.Kind)
	}

	relabeled := *v.w.Exec
	relabeled.Steps = append([]layers.Step(nil), v.w.Exec.Steps...)
	relabeled.Steps[0].Action = "no-such-action"
	bad := *v.w
	bad.Exec = &relabeled
	if err := w.check(k, verdict{m: v.m, w: &bad}); err == nil || !strings.Contains(err.Error(), "replay") {
		t.Errorf("relabeled witness: got %v, want a replay failure", err)
	}

	truncated := *v.w.Exec
	truncated.Steps = v.w.Exec.Steps[:0]
	bad.Exec = &truncated
	if err := w.check(k, verdict{m: v.m, w: &bad}); err == nil {
		t.Errorf("witness cut before the violation was accepted")
	}

	ok := *v.w
	ok.Kind = layers.OK
	if err := w.check(k, verdict{m: v.m, w: &ok}); err == nil {
		t.Errorf("OK verdict carrying an execution was accepted")
	}
}

// Warm-query answers are held to setup's answers as well as to the paper.
func TestWarmQueryDetectsChangedAnswer(t *testing.T) {
	w := newWarmQuery()
	w.cat = []config{{3, 1, 1}, {3, 1, 2}}
	if err := w.setup(&client{}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < w.size(); k++ {
		ans, err := w.run(&client{}, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.check(k, ans); err != nil {
			t.Fatalf("query %d: %v", k, err)
		}
		switch a := ans.(type) {
		case fieldAnswer:
			a.bivalentInits++
			ans = a
		case ckAnswer:
			a.ck--
			ans = a
		case verdict:
			a.states++
			ans = a
		}
		if err := w.check(k, ans); err == nil {
			t.Errorf("query %d: changed answer accepted", k)
		}
	}
}

// lastLine runs the benchmark with args and decodes its final output line.
func lastLine(t *testing.T, args ...string) map[string]any {
	t.Helper()
	var out, errOut bytes.Buffer
	args = append(args, "--seconds", "1", "--out", t.TempDir())
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if got["correct"] != true || got["failed"].(float64) != 0 {
		t.Fatalf("run not correct: %v", got)
	}
	return got["metrics"].(map[string]any)
}

// The traced run reports every per-layer metric, and the layers' self
// times plus the unattributed remainder equal the traced op wall.
func TestTracedRunReconciles(t *testing.T) {
	metrics := lastLine(t, "--workload", "warm-query", "--trace", "1")
	val := func(name string) float64 { return metrics[name].(map[string]any)["value"].(float64) }
	sum := val("unattributed.ms_per_op")
	for _, name := range layerNames {
		sum += val(name + ".ms_per_op")
	}
	if op := val("trace.op_ms_per_op"); op <= 0 || (sum-op)/op > 1e-9 || (op-sum)/op > 1e-9 {
		t.Fatalf("layers + unattributed = %g ms, op wall %g ms", sum, op)
	}
	if r := val("core.intern.hit_ratio"); r <= 0.9 {
		t.Errorf("warm-query intern hit ratio %g, want > 0.9", r)
	}
}

func TestUntracedRunReportsEndToEndMetrics(t *testing.T) {
	metrics := lastLine(t, "--workload", "cold-verdict")
	for _, name := range []string{"setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "cpu_ms_per_op", "alloc_mb_per_op", "max_rss_mb"} {
		if v := metrics[name].(map[string]any)["value"].(float64); v <= 0 {
			t.Errorf("%s = %g, want > 0", name, v)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
}

func TestCompareRefusesDifferentHosts(t *testing.T) {
	a := &result{Workload: "cold-verdict", Seconds: 30, Fingerprint: fingerprint{Host: host{CPUModel: "A", NumCPU: 2}},
		Metrics: map[string]metric{"op_ms_p50": {1, "ms"}}}
	b := *a
	b.Fingerprint.Host.NumCPU = 1
	if code := compareSets([]*result{a}, []*result{&b}, io.Discard, io.Discard); code != 3 {
		t.Fatalf("compare across hosts exited %d, want 3", code)
	}
	c := *a
	c.Fingerprint.Commit = "other"
	if code := compareSets([]*result{a}, []*result{&c}, io.Discard, io.Discard); code == 3 {
		t.Fatalf("compare across commits on one host was refused")
	}
}
