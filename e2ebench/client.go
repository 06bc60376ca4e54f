package main

import (
	"errors"

	layers "repro"
	"repro/internal/simplex"
)

// client is the benchmark's single closed-loop caller. Every engine call
// goes through one of its methods, which call the repro facade at the
// default worker count. With a tracer, each method opens a span named after
// the layer it calls and records that layer's work counts; without one it
// is a plain call.
type client struct {
	tr *tracer
}

// span opens a span when tracing; the returned function closes it.
func (c *client) span(name string) func() {
	if c.tr == nil {
		return func() {}
	}
	id := c.tr.begin(name)
	return func() { c.tr.end(id) }
}

// explore materialises the interned state graph of m to depth. warm marks a
// re-exploration of a model whose cache an earlier exploration filled; the
// interner's counters are then read as a delta from before.
func (c *client) explore(m layers.Model, depth int, warm *layers.IDGraph) (*layers.IDGraph, error) {
	if c.tr == nil {
		return layers.ExploreIDCtx(nil, m, depth, 0, 0)
	}
	name := layerExplore
	if warm != nil {
		name = layerExploreWarm
	}
	return c.traceExplore(name, warm, func() (*layers.IDGraph, error) {
		return layers.ExploreIDCtx(nil, m, depth, 0, 0)
	})
}

// exploreMap is explore for the key-addressed Graph view (the paper
// suite's E6, E8 and E9 use it); it runs the same exploration engine.
func (c *client) exploreMap(m layers.Model, depth int) (*layers.Graph, error) {
	if c.tr == nil {
		return layers.ExploreCtx(nil, m, depth, 0)
	}
	var g *layers.Graph
	_, err := c.traceExplore(layerExplore, nil, func() (*layers.IDGraph, error) {
		var err error
		if g, err = layers.ExploreCtx(nil, m, depth, 0); g != nil {
			return g.Dense(), err
		}
		return nil, err
	})
	return g, err
}

// traceExplore runs an exploration in a span of the named layer and adds
// its graph size, interner traffic, heap objects and process CPU time to
// the layer. Interner counters are cumulative per model, so a warm
// exploration's are read as a delta from before.
func (c *client) traceExplore(name string, warm *layers.IDGraph, fn func() (*layers.IDGraph, error)) (*layers.IDGraph, error) {
	var hits0, enums0 int64
	if warm != nil {
		st := warm.Cache.Stats()
		hits0, enums0 = st.Hits, int64(st.Enumerations)
	}
	a := c.tr.layer(name)
	allocs0, cpu0 := c.tr.allocObjects(), cpuNs()
	id := c.tr.begin(name)
	g, err := fn()
	wall := c.tr.end(id)
	a.cpuNs += cpuNs() - cpu0
	a.allocs += int64(c.tr.allocObjects() - allocs0)
	a.wallNs += wall
	if g != nil {
		st := g.Cache.Stats()
		a.states += int64(g.Len())
		a.edges += int64(g.NumEdges())
		a.hits += st.Hits - hits0
		a.enums += int64(st.Enumerations) - enums0
	}
	return g, err
}

// certifyGraph certifies consensus over a materialised graph.
func (c *client) certifyGraph(g *layers.IDGraph) (*layers.Witness, error) {
	defer c.span(layerCertify)()
	w, err := layers.CertifyGraphCtx(nil, g, 0)
	if c.tr != nil && w != nil {
		c.tr.layer(layerCertify).visits += int64(w.Explored)
	}
	return w, err
}

// certifyFast is the facade's CertifyFastCtx spelled out as its two
// public steps, explore then certify, with the same fallback to the
// recursive certifier for graphs that are not graded, so that each step
// lands in its own layer.
func (c *client) certifyFast(m layers.Model, bound, maxVisits int) (*layers.Witness, error) {
	g, err := c.explore(m, bound, nil)
	if err != nil {
		return nil, err
	}
	end := c.span(layerCertify)
	w, err := layers.CertifyGraphCtx(nil, g, maxVisits)
	end()
	if errors.Is(err, layers.ErrNotGraded) {
		return c.certify(m, bound, maxVisits)
	}
	if c.tr != nil && w != nil {
		c.tr.layer(layerCertify).visits += int64(w.Explored)
	}
	return w, err
}

// certify runs the recursive certifier, which explores as it goes.
func (c *client) certify(m layers.Model, bound, maxVisits int) (*layers.Witness, error) {
	defer c.span(layerCertifyRec)()
	return layers.Certify(m, bound, maxVisits)
}

// field computes the valence field of a graph.
func (c *client) field(g *layers.IDGraph) (*layers.Field, error) {
	defer c.span(layerField)()
	f, err := layers.NewFieldParallelCtx(nil, g, 0)
	if c.tr != nil {
		c.tr.layer(layerField).nodes += int64(g.Len())
	}
	return f, err
}

// commonKnowledge partitions depth layer d of g into common-knowledge
// classes and counts the layer's states at which the value decided there
// is common knowledge (Dwork–Moses). It returns that count, the layer size
// and the number of classes.
func (c *client) commonKnowledge(g *layers.IDGraph, d int) (ck, states, classes int) {
	defer c.span(layerKnowledge)()
	cls := layers.NewKnowledgeClassesLayer(g, d)
	layer := g.Layer(d)
	for _, u := range layer {
		x := g.States[u]
		if v := decidedValue(x); v >= 0 && cls.CommonKnowledge(x.Key(), layers.DecidedValueFact(v)) {
			ck++
		}
	}
	return ck, len(layer), cls.Count()
}

// oracle runs fn, a batch of valence queries against o, as one oracle
// span, and records how many queries the memo answered.
func (c *client) oracle(o *layers.Oracle, fn func()) {
	if c.tr == nil {
		fn()
		return
	}
	before := o.Stats()
	end := c.span(layerOracle)
	fn()
	end()
	after := o.Stats()
	a := c.tr.layer(layerOracle)
	a.queries += after.Queries - before.Queries
	a.memoHits += after.MemoHits - before.MemoHits
}

// kthick evaluates 1-resilient solvability of a task through the Section 7
// k-thick connectivity characterisation.
func (c *client) kthick(p *simplex.Problem, k, budget int) (bool, error) {
	defer c.span(layerKThick)()
	_, ok, err := p.KThickConnected(k, budget)
	return ok, err
}

// certifyTask certifies a protocol against a general decision problem.
func (c *client) certifyTask(m layers.Model, inits []layers.State, delta layers.DeltaFunc, bound int) (*layers.TaskWitness, error) {
	defer c.span(layerCertifyTask)()
	return layers.CertifyTask(m, inits, delta, bound, 0)
}

// decidedValue is the value decided by the first non-failed process that
// has decided at x, or -1 if none has.
func decidedValue(x layers.State) int {
	for i := 0; i < x.N(); i++ {
		if x.FailedAt(i) {
			continue
		}
		if v, ok := x.Decided(i); ok {
			return v
		}
	}
	return -1
}
