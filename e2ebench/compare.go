package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// spec is the part of BENCHMARK.json the comparison reads: each
// end-to-end metric's direction and regression bound.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

var errRefused = errors.New("results are not comparable")

func loadResults(dir string) ([]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []*result
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		r := &result{}
		if err := json.Unmarshal(b, r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	return out, nil
}

// comparable explains why two results may not be compared, or returns "".
// The measured program's commit is what a comparison is for, so it may
// differ; the host, the benchmark's own sources and the run length may
// not.
func comparable(a, b *result) string {
	switch {
	case a.Fingerprint.Host != b.Fingerprint.Host:
		return fmt.Sprintf("hosts differ: %+v vs %+v", a.Fingerprint.Host, b.Fingerprint.Host)
	case a.Fingerprint.BenchSHA256 != b.Fingerprint.BenchSHA256:
		return "benchmark sources differ"
	case a.Seconds != b.Seconds:
		return fmt.Sprintf("run lengths differ: %d s vs %d s", a.Seconds, b.Seconds)
	}
	return ""
}

// compareDirs compares two sets of runs workload by workload: for each
// metric, the median and quartile spread of each set and the change of the
// medians, judged against the bound BENCHMARK.json fixes. It exits 3 when
// the sets are not comparable and 1 when an end-to-end metric regressed
// beyond its bound.
func compareDirs(oldDir, newDir string, stdout, stderr io.Writer) int {
	olds, err := loadResults(oldDir)
	if err == nil {
		var news []*result
		if news, err = loadResults(newDir); err == nil {
			return compareSets(olds, news, stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "e2ebench:", err)
	return 2
}

func compareSets(olds, news []*result, stdout, stderr io.Writer) int {
	ref := olds[0]
	for _, r := range append(olds[1:], news...) {
		if why := comparable(ref, r); why != "" {
			fmt.Fprintf(stderr, "e2ebench: %v: %s\n", errRefused, why)
			return 3
		}
	}
	bounds := map[string]float64{}
	lower := map[string]bool{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var s spec
		if err := json.Unmarshal(b, &s); err != nil {
			fmt.Fprintln(stderr, "e2ebench: BENCHMARK.json:", err)
			return 2
		}
		for _, m := range s.EndToEnd {
			bounds[m.Name], lower[m.Name] = m.Bound, m.Better == "lower"
		}
	}
	type key struct {
		workload string
		trace    int
		metric   string
	}
	collect := func(rs []*result) map[key][]float64 {
		out := map[key][]float64{}
		for _, r := range rs {
			for name, m := range r.Metrics {
				k := key{r.Workload, r.Trace, name}
				out[k] = append(out[k], m.Value)
			}
		}
		return out
	}
	oldV, newV := collect(olds), collect(news)
	keys := make([]key, 0, len(oldV))
	for k := range oldV {
		if _, ok := newV[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return a.trace < b.trace
		}
		return a.metric < b.metric
	})
	fmt.Fprintf(stdout, "%-12s %-38s %12s %8s %12s %8s %9s  %s\n",
		"workload", "metric", "old-median", "spread", "new-median", "spread", "change", "verdict")
	regressed := false
	for _, k := range keys {
		o, n := oldV[k], newV[k]
		om, nm := median(o), median(n)
		oSpread, nSpread := spread(o), spread(n)
		change := ratio(nm-om, om)
		verdict := ""
		if bound, ok := bounds[k.metric]; ok && k.trace == 0 {
			worse := change
			if !lower[k.metric] {
				worse = -change
			}
			switch {
			case oSpread > bound || nSpread > bound:
				verdict = "unresolved: spread above bound"
			case worse > bound:
				verdict = fmt.Sprintf("REGRESSION beyond bound %.2f", bound)
				regressed = true
			default:
				verdict = fmt.Sprintf("within bound %.2f", bound)
			}
		}
		fmt.Fprintf(stdout, "%-12s %-38s %12.6g %7.1f%% %12.6g %7.1f%% %+8.1f%%  %s\n",
			k.workload, k.metric, om, 100*oSpread, nm, 100*nSpread, 100*change, verdict)
	}
	if regressed {
		return 1
	}
	return 0
}

// spread is the distance between the quartiles as a share of the median,
// 0 for fewer than two values.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}
