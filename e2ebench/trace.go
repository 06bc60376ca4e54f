package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"syscall"
	"time"
)

// Layer names: one per engine layer the client calls through the facade.
// A span with one of these names is a layer span; its self time is that
// layer's time. Any other span (the op root, a paper-suite experiment) is
// bookkeeping, and its self time counts as unattributed.
const (
	layerExplore     = "core.explore"
	layerExploreWarm = "core.explore_warm"
	layerField       = "valence.field"
	layerCertify     = "valence.certify"
	layerKnowledge   = "knowledge.classes"
	layerCertifyRec  = "valence.certify_recursive"
	layerOracle      = "valence.oracle"
	layerKThick      = "simplex.kthick"
	layerCertifyTask = "decision.certify_task"
)

var layerNames = []string{
	layerExplore, layerExploreWarm, layerField, layerCertify, layerKnowledge,
	layerCertifyRec, layerOracle, layerKThick, layerCertifyTask,
}

// span is one interval of the client's own timeline: a facade call, an
// experiment of the paper suite, or a whole op. Times are nanoseconds since
// the tracer was made; parent is an index into tracer.spans, -1 for an op
// root.
type span struct {
	op         int
	name       string
	parent     int32
	start, end int64
}

// layerAcc accumulates one layer's self time and the work counts its call
// sites report.
type layerAcc struct {
	selfNs int64
	// Exploration: graph sizes, interner traffic, heap objects allocated and
	// process CPU time spent inside the explore spans, and their wall time.
	states, edges, hits, enums, allocs, cpuNs, wallNs int64
	// Field sweeps: nodes swept. Certification: (state, depth) visits.
	nodes, visits int64
	// Oracle: valence queries and the share answered from the memo.
	queries, memoHits int64
}

// tracer records spans in memory for the traced run and folds each op's
// spans into per-layer self times when the op ends. The client is a single
// goroutine, so spans nest strictly and a stack of open spans suffices.
type tracer struct {
	base  time.Time
	spans []span
	open  []int32
	opIdx int
	acc   map[string]*layerAcc

	// ops counts the finished ops; it is also the index of the open one.
	ops          int
	opNs         int64
	unattributed int64
	gcCycles     uint64
	gcPauseNs    float64
	gcBefore     gcSample
	objects, gc  []metrics.Sample
	pauseBuckets []float64
}

func newTracer() *tracer {
	t := &tracer{base: time.Now(), acc: make(map[string]*layerAcc)}
	for _, name := range layerNames {
		t.acc[name] = &layerAcc{}
	}
	t.objects = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	t.gc = []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{op: t.ops, name: name, parent: parent, start: t.now()})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span, and returns
// its duration.
func (t *tracer) end(id int32) int64 {
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("e2ebench: span %q closed out of order", t.spans[id].name))
	}
	t.open = t.open[:n-1]
	s := &t.spans[id]
	s.end = t.now()
	return s.end - s.start
}

// layer returns the accumulator of a named layer.
func (t *tracer) layer(name string) *layerAcc {
	a, ok := t.acc[name]
	if !ok {
		panic("e2ebench: unknown layer " + name)
	}
	return a
}

// beginOp opens the root span of one op and samples the GC counters.
func (t *tracer) beginOp() int32 {
	t.opIdx = len(t.spans)
	t.gcBefore = t.gcSample()
	return t.begin("op")
}

// endOp closes the op root and folds the op's spans into self times: a
// span's self time is its duration minus its direct children's durations.
// Layer spans credit their layer; every other span's self time is
// unattributed. By construction the self times of all of an op's spans sum
// to the op's wall time; endOp checks that, and that no self time is
// negative, which would mean a child outlived its parent.
func (t *tracer) endOp(root int32) (wallNs int64, err error) {
	wallNs = t.end(root)
	after := t.gcSample()
	t.gcCycles += after.cycles - t.gcBefore.cycles
	t.gcPauseNs += t.pauseDelta(t.gcBefore.pauseCounts, after.pauseCounts)

	spans := t.spans[t.opIdx:]
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[int(s.parent)-t.opIdx] -= s.end - s.start
		}
	}
	var sum, unattributed int64
	for i, s := range spans {
		if self[i] < 0 {
			return 0, fmt.Errorf("span %q has negative self time %d ns", s.name, self[i])
		}
		sum += self[i]
		if a, ok := t.acc[s.name]; ok {
			a.selfNs += self[i]
		} else {
			unattributed += self[i]
		}
	}
	if sum != wallNs {
		return 0, fmt.Errorf("op %d: span self times sum to %d ns, op wall is %d ns", t.ops, sum, wallNs)
	}
	t.unattributed += unattributed
	t.opNs += wallNs
	t.ops++
	return wallNs, nil
}

// gcSample is a reading of the GC cycle count and pause histogram.
type gcSample struct {
	cycles      uint64
	pauseCounts []uint64
}

func (t *tracer) gcSample() gcSample {
	metrics.Read(t.gc)
	h := t.gc[1].Value.Float64Histogram()
	if t.pauseBuckets == nil {
		t.pauseBuckets = append([]float64(nil), h.Buckets...)
	}
	return gcSample{cycles: t.gc[0].Value.Uint64(), pauseCounts: append([]uint64(nil), h.Counts...)}
}

// pauseDelta estimates the GC pause nanoseconds between two histogram
// readings, counting each new pause at its bucket's midpoint (the lower
// bound for the open-ended last bucket).
func (t *tracer) pauseDelta(before, after []uint64) float64 {
	var ns float64
	for i := range after {
		d := after[i] - before[i]
		if d == 0 {
			continue
		}
		lo, hi := t.pauseBuckets[i], t.pauseBuckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(hi, 1):
			mid = lo
		case math.IsInf(lo, -1):
			mid = hi
		}
		ns += float64(d) * mid * 1e9
	}
	return ns
}

// allocObjects reads the cumulative count of heap objects allocated.
func (t *tracer) allocObjects() uint64 {
	metrics.Read(t.objects)
	return t.objects[0].Value.Uint64()
}

// writeSpans writes every recorded span as tab-separated lines: op, span
// index, parent index, name, start and end in nanoseconds since the tracer
// was made.
func (t *tracer) writeSpans(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "op\tspan\tparent\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.op, i, s.parent, s.name, s.start, s.end)
	}
	return bw.Flush()
}

// cpuNs returns the process's user plus system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// maxRSSBytes returns the process's peak resident set size.
func maxRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports kilobytes.
}
