package main

import (
	"fmt"

	layers "repro"
	"repro/internal/protocols"
	"repro/internal/tasks"
	"repro/internal/valence"
)

// paperSuite is one op per pass over the paper's experiments E1–E11, with
// the paper's fixed parameters and the assertions cmd/experiments makes,
// minus the printing. Where cmd/experiments only prints a mismatch (E7's
// solvability zoo), the pass fails. The seed has nothing to vary: the
// inputs are fixed by the paper.
type paperSuite struct{}

// refutation is a witness a pass produced and the model and bound to
// replay it under.
type refutation struct {
	id    string
	m     layers.Model
	w     *layers.Witness
	bound int
}

// pass accumulates one pass's refutations for the check.
type pass struct {
	c    *client
	refs []refutation
}

func (s paperSuite) size() int { return 1 }

func (s paperSuite) setup(c *client) error {
	ans, err := s.run(c, 0)
	if err != nil {
		return err
	}
	return s.check(0, ans)
}

func (s paperSuite) run(c *client, _ int) (any, error) {
	p := &pass{c: c}
	for _, e := range []struct {
		id string
		fn func() error
	}{
		{"E1", p.e1}, {"E2", p.e2}, {"E3", p.e3}, {"E4", p.e4}, {"E5", p.e5}, {"E6", p.e6},
		{"E7", p.e7}, {"E8", p.e8}, {"E9", p.e9}, {"E10", p.e10}, {"E11", p.e11},
	} {
		end := c.span("suite." + e.id)
		err := e.fn()
		end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.id, err)
		}
	}
	return p.refs, nil
}

// check replays every refutation of the pass through its model.
func (s paperSuite) check(_ int, ans any) error {
	refs := ans.([]refutation)
	if len(refs) == 0 {
		return fmt.Errorf("pass produced no refutations")
	}
	for _, r := range refs {
		if err := checkWitness(r.m, r.w, r.bound); err != nil {
			return fmt.Errorf("%s: %w", r.id, err)
		}
	}
	return nil
}

func (p *pass) refuted(id string, m layers.Model, w *layers.Witness, bound int) {
	p.refs = append(p.refs, refutation{id: id, m: m, w: w, bound: bound})
}

// e1: Lemma 3.6 — Con_0 is similarity connected and holds a bivalent
// state, in M^mf for n = 2..5.
func (p *pass) e1() error {
	for n := 2; n <= 5; n++ {
		m := layers.MobileS1(layers.FloodSet{Rounds: 2}, n)
		_, conn := valence.SetSDiameter(m.Inits())
		g, err := p.c.explore(m, 2, nil)
		if err != nil {
			return err
		}
		f, err := p.c.field(g)
		if err != nil {
			return err
		}
		found := false
		for _, u := range g.Layer(0) {
			if f.Bivalent(u) {
				found = true
				break
			}
		}
		if !conn || !found {
			return fmt.Errorf("n=%d: Lemma 3.6 failed", n)
		}
	}
	return nil
}

// e2: Lemma 5.1 and Corollary 5.2 — layers of M^mf are similarity and
// valence connected, and no protocol solves consensus there.
func (p *pass) e2() error {
	for _, cfg := range []struct{ n, b int }{{3, 2}, {3, 3}, {4, 2}} {
		m := layers.MobileS1(layers.FloodSet{Rounds: cfg.b}, cfg.n)
		o := layers.NewOracle(m)
		simOK := true
		p.c.oracle(o, func() {
			for _, x := range m.Inits() {
				if r := layers.AnalyzeLayer(m, o, x, cfg.b); !r.SimilarityConnected || !r.ValenceConnected {
					simOK = false
				}
			}
		})
		if !simOK {
			return fmt.Errorf("n=%d B=%d: a layer is not similarity and valence connected (Lemma 5.1)", cfg.n, cfg.b)
		}
		w, err := p.c.certifyFast(m, cfg.b, 0)
		if err != nil {
			return err
		}
		if w.Kind == layers.OK {
			return fmt.Errorf("consensus certified in M^mf")
		}
		p.refuted("E2", m, w, cfg.b)
	}
	return nil
}

// e3: Lemma 5.3 and Corollary 5.4 — the shared-memory bridge identity,
// and SMVote refuted under the synchronic layering.
func (p *pass) e3() error {
	const n = 3
	m := layers.SharedMemory(layers.SMVote{Phases: 2}, n)
	for a := 0; a < 1<<n; a++ {
		x := m.Initial([]int{a & 1, (a >> 1) & 1, (a >> 2) & 1})
		for j := 0; j < n; j++ {
			y := m.ApplyAbsent(m.Apply(x, j, n), j)
			yp := m.Apply(m.ApplyAbsent(x, j), j, 0)
			if !layers.AgreeModulo(y, yp, j) {
				return fmt.Errorf("bridge failed at inputs %03b j=%d", a, j)
			}
		}
	}
	for _, ph := range []int{1, 2} {
		mm := layers.SharedMemory(layers.SMVote{Phases: ph}, n)
		w, err := p.c.certify(mm, ph, 0)
		if err != nil {
			return err
		}
		if w.Kind == layers.OK {
			return fmt.Errorf("consensus certified in M^rw")
		}
		p.refuted("E3", mm, w, ph)
	}
	return nil
}

// e4: the permutation layering — the diamond identity, and flooding
// refuted in asynchronous message passing and in IIS.
func (p *pass) e4() error {
	const n = 3
	fi := layers.AsyncMessagePassing(layers.MPFullInfo{}, n)
	x := fi.Initial([]int{0, 1, 1})
	yTop := fi.Sequential(fi.Sequential(x, []int{0, 1, 2}), []int{0, 1})
	yBot := fi.Sequential(fi.Sequential(x, []int{0, 1}), []int{2, 0, 1})
	if yTop.Key() != yBot.Key() {
		return fmt.Errorf("diamond identity failed")
	}
	for _, ph := range []int{1, 2} {
		m := layers.AsyncMessagePassing(layers.MPFlood{Phases: ph}, n)
		w, err := p.c.certify(m, ph, 0)
		if err != nil {
			return err
		}
		if w.Kind == layers.OK {
			return fmt.Errorf("consensus certified in async MP")
		}
		p.refuted("E4", m, w, ph)
	}
	iisM := layers.IteratedImmediateSnapshot(layers.SMVote{Phases: 1}, n)
	w, err := p.c.certify(iisM, 1, 0)
	if err != nil {
		return err
	}
	if w.Kind == layers.OK {
		return fmt.Errorf("consensus certified in IIS")
	}
	p.refuted("E4", iisM, w, 1)
	return nil
}

// e5: Corollary 6.3 — FloodSet is refuted at t rounds and certified at
// t+1.
func (p *pass) e5() error {
	for _, cfg := range []struct{ n, t int }{{3, 1}, {4, 1}, {4, 2}, {5, 3}, {6, 2}} {
		fast := layers.SyncSt(layers.FloodSet{Rounds: cfg.t}, cfg.n, cfg.t)
		wf, err := p.c.certifyFast(fast, cfg.t, 50_000_000)
		if err != nil {
			return err
		}
		good := layers.SyncSt(layers.FloodSet{Rounds: cfg.t + 1}, cfg.n, cfg.t)
		wg, err := p.c.certifyFast(good, cfg.t+1, 50_000_000)
		if err != nil {
			return err
		}
		if wg.Kind != layers.OK || wf.Kind == layers.OK {
			return fmt.Errorf("n=%d t=%d: lower-bound story failed", cfg.n, cfg.t)
		}
		p.refuted("E5", fast, wf, cfg.t)
	}
	return nil
}

// e6: Lemma 6.4 — in a fast protocol every failure-free successor is
// univalent.
func (p *pass) e6() error {
	for _, cfg := range []struct{ n, t int }{{3, 1}, {4, 2}} {
		rounds := cfg.t + 1
		m := layers.SyncSt(layers.FloodSet{Rounds: rounds}, cfg.n, cfg.t)
		g, err := p.c.exploreMap(m, rounds-1)
		if err != nil {
			return err
		}
		o := layers.NewOracle(m)
		for d := 0; d < rounds; d++ {
			for _, x := range g.StatesAtDepth(d) {
				succ := m.Successors(x)[0].State
				ok := false
				p.c.oracle(o, func() { _, ok = o.Univalent(succ, rounds-d-1) })
				if !ok {
					return fmt.Errorf("n=%d t=%d: non-univalent failure-free successor at depth %d", cfg.n, cfg.t, d)
				}
			}
		}
	}
	return nil
}

// e7: Theorem 7.2 and Corollary 7.3 — 1-thick connectivity decides
// 1-resilient solvability for every task of the zoo.
func (p *pass) e7() error {
	for _, n := range []int{2, 3} {
		for _, task := range tasks.Zoo(n) {
			budget := task.SubproblemBudget
			if budget == 0 {
				budget = 1_000_000
			}
			ok, err := p.c.kthick(task.Problem, 1, budget)
			if err != nil {
				return fmt.Errorf("%s: %w", task.Problem.Name, err)
			}
			if ok != task.Solvable1Resilient {
				return fmt.Errorf("n=%d %s: 1-thick connected=%v, literature says solvable=%v",
					n, task.Problem.Name, ok, task.Solvable1Resilient)
			}
		}
	}
	return nil
}

// e8: Lemma 7.6 — the s-diameter of each layer grows at most as the
// lemma bounds it.
func (p *pass) e8() error {
	const n, t, depth = 3, 2, 2
	m := layers.SyncSt(protocols.FullInfo{}, n, t)
	g, err := p.c.exploreMap(m, depth)
	if err != nil {
		return err
	}
	dPrev, _ := valence.SetSDiameter(g.StatesAtDepth(0))
	for d := 1; d <= depth; d++ {
		dY := 0
		for _, x := range g.StatesAtDepth(d - 1) {
			states, _ := valence.Layer(m, x)
			if ld, _ := valence.SetSDiameter(states); ld > dY {
				dY = ld
			}
		}
		bound := dPrev*dY + dPrev + dY
		dCur, _ := valence.SetSDiameter(g.StatesAtDepth(d))
		if dCur > bound {
			return fmt.Errorf("depth %d: measured %d exceeds bound %d", d, dCur, bound)
		}
		dPrev = dCur
	}
	return nil
}

// e9: wasted faults (every bivalent state at round r has r <= f <= t-1
// failures), early decision, and the IIS chromatic subdivision.
func (p *pass) e9() error {
	{
		const n, tt, c = 4, 2, 2
		rounds := tt + 1
		m := layers.SyncStMulti(protocols.FloodSet{Rounds: rounds}, n, tt, c)
		g, err := p.c.exploreMap(m, rounds)
		if err != nil {
			return err
		}
		o := layers.NewOracle(m)
		var bad error
		p.c.oracle(o, func() {
			for d := 0; d <= rounds && bad == nil; d++ {
				for _, x := range g.StatesAtDepth(d) {
					if !o.Bivalent(x, rounds-d) {
						continue
					}
					f := 0
					for i := 0; i < n; i++ {
						if x.FailedAt(i) {
							f++
						}
					}
					if f < d || f > tt-1 {
						bad = fmt.Errorf("bivalent state at round %d with %d failures violates r <= f <= t-1", d, f)
						break
					}
				}
			}
		})
		if bad != nil {
			return bad
		}
	}
	{
		const n, tt = 4, 2
		m := layers.SyncSt(layers.EarlyFloodSet{MaxRounds: tt + 1}, n, tt)
		w, err := p.c.certify(m, tt+1, 0)
		if err != nil {
			return err
		}
		if w.Kind != layers.OK {
			return fmt.Errorf("EarlyFloodSet refuted")
		}
		r := &layers.Runner{Model: m, MaxLayers: tt + 2}
		out, err := r.Run(m.Inits()[1], layers.FirstAction{})
		if err != nil {
			return err
		}
		if out.DecisionLayer > tt+1 {
			return fmt.Errorf("EarlyFloodSet decided at layer %d, after t+1", out.DecisionLayer)
		}
	}
	{
		const n = 3
		m := layers.IteratedImmediateSnapshot(layers.SMFullInfo{}, n)
		st := m.Stats(m.Initial([]int{0, 1, 1}))
		if st.TopSimplexes != 13 || !st.ThickConnected || !st.Pseudomanifold {
			return fmt.Errorf("chromatic subdivision structure wrong")
		}
	}
	return nil
}

// e10: the k-set boundary — one round of flooding in M^mf solves 2-set
// agreement on ternary inputs but not consensus.
func (p *pass) e10() error {
	const n = 3
	m := layers.MobileS1(layers.FloodSet{Rounds: 1}, n)
	var inits []layers.State
	for a := 0; a < 27; a++ {
		v := a
		in := make([]int, n)
		for i := 0; i < n; i++ {
			in[i] = v % 3
			v /= 3
		}
		inits = append(inits, m.Initial(in))
	}
	w2, err := p.c.certifyTask(m, inits, tasks.KSetAgreement(n, 2).Problem.Delta, 1)
	if err != nil {
		return err
	}
	w1, err := p.c.certifyTask(m, inits, tasks.BinaryConsensus(n).Problem.Delta, 1)
	if err != nil {
		return err
	}
	if w2.Kind != layers.TaskOK || w1.Kind == layers.TaskOK {
		return fmt.Errorf("k-set boundary story failed")
	}
	return nil
}

// e11: Dwork–Moses — at FloodSet's decision round the decided value is
// common knowledge at every state.
func (p *pass) e11() error {
	const n, tt = 3, 1
	rounds := tt + 1
	m := layers.SyncSt(layers.FloodSet{Rounds: rounds}, n, tt)
	g, err := p.c.explore(m, rounds, nil)
	if err != nil {
		return err
	}
	ck, states, _ := p.c.commonKnowledge(g, rounds)
	if ck != states {
		return fmt.Errorf("decision without common knowledge")
	}
	return nil
}
