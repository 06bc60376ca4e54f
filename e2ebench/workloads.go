package main

import (
	"fmt"

	layers "repro"
	"repro/internal/valence"
)

// workload is one set of inputs the client runs. Its ops are the items of
// a deck; the measurement loop deals the deck in a seeded order, one
// shuffled copy after another, so every completed deck holds each op once.
type workload interface {
	// setup prepares and checks what the timed ops need. It is timed as
	// setup_s and may run several times; the last run's state is used.
	setup(c *client) error
	// size is the number of ops in one deck.
	size() int
	// run executes op k of the deck and returns its answer.
	run(c *client, k int) (any, error)
	// check validates op k's answer against the paper and, where the
	// workload has one, against the answer setup computed.
	check(k int, ans any) error
}

// config is one FloodSet instance of the t-resilient synchronous model
// under the S^t layering.
type config struct{ n, t, rounds int }

func (c config) String() string { return fmt.Sprintf("n=%d t=%d rounds=%d", c.n, c.t, c.rounds) }

func (c config) model() layers.Model {
	return layers.SyncSt(layers.FloodSet{Rounds: c.rounds}, c.n, c.t)
}

// catalogue lists every FloodSet instance the verdict workloads draw from:
// n = 3..6, 1 <= t <= min(n-2, 3), and rounds = t (refuted by Corollary
// 6.3) or t+1 (certified).
func catalogue() []config {
	var out []config
	for n := 3; n <= 6; n++ {
		for t := 1; t <= min(n-2, 3); t++ {
			out = append(out, config{n, t, t}, config{n, t, t + 1})
		}
	}
	return out
}

// verdict is one certification answer and the model it was computed on,
// which the check replays refutations through.
type verdict struct {
	m      layers.Model
	w      *layers.Witness
	states int
}

// checkCorollary63 checks a FloodSet verdict against Corollary 6.3:
// FloodSet solves consensus in the t-resilient model exactly when it runs
// at least t+1 rounds. FloodSet decides at its last round and only ever
// decides an input, so the only violation a t-round run can show is of
// agreement; the witness must replay and exhibit it.
func checkCorollary63(cfg config, v verdict) error {
	if want := cfg.rounds >= cfg.t+1; (v.w.Kind == layers.OK) != want {
		return fmt.Errorf("%v: verdict %s contradicts Corollary 6.3", cfg, v.w.Kind)
	}
	if v.w.Kind != layers.OK && v.w.Kind != layers.AgreementViolation {
		return fmt.Errorf("%v: FloodSet refuted by %s, not by an agreement violation", cfg, v.w.Kind)
	}
	if err := checkWitness(v.m, v.w, cfg.rounds); err != nil {
		return fmt.Errorf("%v: %w", cfg, err)
	}
	return nil
}

// coldVerdict certifies FloodSet from a cold model: each op builds a fresh
// model, whose intern cache is empty, explores its graph and certifies it.
type coldVerdict struct {
	cat []config
}

func newColdVerdict() *coldVerdict { return &coldVerdict{cat: catalogue()} }

func (w *coldVerdict) size() int { return len(w.cat) }

// setup runs every instance once, untimed by the op clock, so the heap
// has grown and the code is paged in before the first timed verdict.
func (w *coldVerdict) setup(c *client) error {
	for k := range w.cat {
		ans, err := w.run(c, k)
		if err != nil {
			return err
		}
		if err := w.check(k, ans); err != nil {
			return err
		}
	}
	return nil
}

func (w *coldVerdict) run(c *client, k int) (any, error) {
	cfg := w.cat[k]
	m := cfg.model()
	g, err := c.explore(m, cfg.rounds, nil)
	if err != nil {
		return nil, fmt.Errorf("%v: explore: %w", cfg, err)
	}
	wit, err := c.certifyGraph(g)
	if err != nil {
		return nil, fmt.Errorf("%v: certify: %w", cfg, err)
	}
	return verdict{m: m, w: wit, states: g.Len()}, nil
}

func (w *coldVerdict) check(k int, ans any) error {
	return checkCorollary63(w.cat[k], ans.(verdict))
}

// Query kinds of the warm-query workload.
const (
	queryRecertify = iota
	queryField
	queryKnowledge
	numQueries
)

// warmGraph is one materialised instance and the answers setup computed
// on it, which every later query must reproduce.
type warmGraph struct {
	cfg    config
	m      layers.Model
	g      *layers.IDGraph
	w      *layers.Witness
	field  fieldAnswer
	ck     ckAnswer
	states int
}

// fieldAnswer summarises a valence field at the initial states.
type fieldAnswer struct {
	bivalentInits int
	// uniform[v] is the field mask of the initial state whose inputs are
	// all v.
	uniform [2]uint8
}

// ckAnswer summarises the common-knowledge partition of the decision layer.
type ckAnswer struct{ ck, states, classes int }

// warmQuery queries graphs that setup materialised: a warm re-certify
// (re-exploration through the filled intern cache, then certify), a
// valence field sweep, or the common-knowledge classes of the decision
// layer.
type warmQuery struct {
	cat    []config
	graphs []*warmGraph
}

func newWarmQuery() *warmQuery { return &warmQuery{cat: catalogue()} }

func (w *warmQuery) size() int { return len(w.cat) * numQueries }

// setup materialises every instance from a cold model and computes the
// answers the queries are held to, checking each against the paper.
func (w *warmQuery) setup(c *client) error {
	w.graphs = w.graphs[:0]
	for _, cfg := range w.cat {
		wg := &warmGraph{cfg: cfg, m: cfg.model()}
		var err error
		if wg.g, err = c.explore(wg.m, cfg.rounds, nil); err != nil {
			return fmt.Errorf("%v: explore: %w", cfg, err)
		}
		wg.states = wg.g.Len()
		if wg.w, err = c.certifyGraph(wg.g); err != nil {
			return fmt.Errorf("%v: certify: %w", cfg, err)
		}
		if err := checkCorollary63(cfg, verdict{m: wg.m, w: wg.w, states: wg.states}); err != nil {
			return err
		}
		f, err := c.field(wg.g)
		if err != nil {
			return fmt.Errorf("%v: field: %w", cfg, err)
		}
		wg.field = summariseField(wg.g, f)
		if err := checkLemma36(cfg, wg.field); err != nil {
			return err
		}
		ck, states, classes := c.commonKnowledge(wg.g, cfg.rounds)
		wg.ck = ckAnswer{ck, states, classes}
		if err := checkDworkMoses(cfg, wg.ck); err != nil {
			return err
		}
		w.graphs = append(w.graphs, wg)
	}
	return nil
}

func (w *warmQuery) run(c *client, k int) (any, error) {
	wg := w.graphs[k/numQueries]
	switch k % numQueries {
	case queryRecertify:
		g, err := c.explore(wg.m, wg.cfg.rounds, wg.g)
		if err != nil {
			return nil, fmt.Errorf("%v: warm explore: %w", wg.cfg, err)
		}
		wit, err := c.certifyGraph(g)
		if err != nil {
			return nil, fmt.Errorf("%v: certify: %w", wg.cfg, err)
		}
		return verdict{m: wg.m, w: wit, states: g.Len()}, nil
	case queryField:
		f, err := c.field(wg.g)
		if err != nil {
			return nil, fmt.Errorf("%v: field: %w", wg.cfg, err)
		}
		return summariseField(wg.g, f), nil
	default:
		ck, states, classes := c.commonKnowledge(wg.g, wg.cfg.rounds)
		return ckAnswer{ck, states, classes}, nil
	}
}

func (w *warmQuery) check(k int, ans any) error {
	wg := w.graphs[k/numQueries]
	switch a := ans.(type) {
	case verdict:
		if a.states != wg.states || !sameWitness(a.w, wg.w) {
			return fmt.Errorf("%v: warm re-certify (%d states, %s) differs from setup (%d states, %s)",
				wg.cfg, a.states, a.w.Kind, wg.states, wg.w.Kind)
		}
		// The setup verdict was replayed; an identical run needs no replay.
		return nil
	case fieldAnswer:
		if a != wg.field {
			return fmt.Errorf("%v: field answer %+v differs from setup %+v", wg.cfg, a, wg.field)
		}
		return checkLemma36(wg.cfg, a)
	case ckAnswer:
		if a != wg.ck {
			return fmt.Errorf("%v: knowledge answer %+v differs from setup %+v", wg.cfg, a, wg.ck)
		}
		return checkDworkMoses(wg.cfg, a)
	}
	return fmt.Errorf("unexpected answer %T", ans)
}

// summariseField reads the field at the initial states.
func summariseField(g *layers.IDGraph, f *layers.Field) fieldAnswer {
	var a fieldAnswer
	for _, u := range g.Layer(0) {
		if f.Bivalent(u) {
			a.bivalentInits++
		}
		x := g.States[u]
		in, ok := x.(inputState)
		if !ok {
			continue
		}
		first, uniform := in.InputOf(0), true
		for i := 1; i < x.N(); i++ {
			uniform = uniform && in.InputOf(i) == first
		}
		if uniform && (first == 0 || first == 1) {
			a.uniform[first] = f.Mask(u)
		}
	}
	return a
}

// checkLemma36 checks the field against Lemma 3.6 — some initial state is
// bivalent — and against validity: the all-v initial state can only lead
// to decisions on v.
func checkLemma36(cfg config, a fieldAnswer) error {
	if a.bivalentInits == 0 {
		return fmt.Errorf("%v: no bivalent initial state (Lemma 3.6)", cfg)
	}
	if a.uniform[0] != valence.V0 || a.uniform[1] != valence.V1 {
		return fmt.Errorf("%v: uniform initial states have valences %v, want [V0 V1] by validity", cfg, a.uniform)
	}
	return nil
}

// checkDworkMoses checks the decision layer against Dwork and Moses:
// in a protocol that solves consensus the decided value is common
// knowledge wherever it is decided, so it is common knowledge at every
// state of the decision round exactly when FloodSet runs t+1 rounds. A
// t-round FloodSet decides without common knowledge somewhere.
func checkDworkMoses(cfg config, a ckAnswer) error {
	if a.states == 0 {
		return fmt.Errorf("%v: empty decision layer", cfg)
	}
	if want := cfg.rounds >= cfg.t+1; (a.ck == a.states) != want {
		return fmt.Errorf("%v: decided value common knowledge at %d/%d decision states, want all=%v (Dwork–Moses)",
			cfg, a.ck, a.states, want)
	}
	return nil
}
