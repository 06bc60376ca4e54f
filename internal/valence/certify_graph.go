package valence

import (
	"errors"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilient"
)

// ErrNotGraded is returned by CertifyGraphCtx when the graph has an edge that
// does not go from depth d to depth d+1. On such graphs the certifier's
// per-node visited bitsets would not be equivalent to the recursive
// (state, remaining-depth) memo; use Certify instead.
var ErrNotGraded = errors.New("valence: graph is not graded")

// CertifyGraphCtx certifies the consensus requirements over a fully explored
// state graph in one forward pass: agreement and validity on nodes,
// write-once stability on edges, and decision on the deepest layer, exactly
// as Certify does over bound = g.Depth layers. Instead of re-enumerating
// successors per state with a map[...(id, depth, inputs)]bool memo, it
// walks the CSR arrays with one visited bitset per input mask (on a graded
// graph a node's remaining depth is determined by its id, so (node, inputs)
// is the whole memo key). The witness execution is reconstructed from the
// DFS stack only when a violation is found.
//
// The per-visit and per-edge consensus checks are answered from the graph's
// cached check planes (certPlanesOf): one word test per visited node and
// one bit test per edge replace the State interface scans, which run only
// on the rare dirty node or edge to rebuild the exact witness. The planes
// are derived once per graph and amortized across certifications, the same
// way the key index and gradedness are.
//
// Roots are scanned in Inits order and edges in enumeration order — the
// same search order as Certify — so the verdict, witness execution, and
// Explored count are bit-for-bit identical to the recursive certifier's.
// g must be explored with no node budget; maxVisits bounds the total
// number of node visits across all roots (0 = no bound).
//
// ctx (nil never cancels) is polled, with the chaos certify.visit fault
// point, at every root boundary and every 256 DFS steps. An interruption
// returns an error wrapping ErrCanceled/ErrDeadline (or ErrBudget for an
// injected budget fault) that carries a resilient.Checkpointer snapshotting
// the per-input-mask visited bitsets, the DFS stack, and the root cursor;
// resuming with that snapshot (resilient.TagCertify, validated against a
// fingerprint of the graph) finishes with a verdict, witness, and Explored
// count bit-identical to an uninterrupted run's.
func CertifyGraphCtx(ctx *resilient.Ctx, g *core.IDGraph, maxVisits int) (*Witness, error) {
	if !g.Graded() {
		return nil, ErrNotGraded
	}
	rec := obs.Active()
	tr := obs.Trace()
	var root obs.TraceSpan
	if tr != nil {
		root = tr.Begin("certify", 0)
		defer tr.End(root)
	}
	if rec != nil {
		defer obs.Span(rec, "certify.time")()
		rec.Event("certify.start",
			obs.F{Key: "engine", Value: "graph"},
			obs.F{Key: "nodes", Value: g.Len()},
			obs.F{Key: "edges", Value: g.NumEdges()},
			obs.F{Key: "depth", Value: g.Depth},
			obs.F{Key: "roots", Value: len(g.Inits)})
	}
	c := &graphCertifier{
		g:         g,
		ctx:       ctx,
		cp:        certPlanesOf(g),
		maxVisits: maxVisits,
		visited:   make(map[uint64][]uint64),
	}
	startRoot, midRoot := 0, false
	if data := ctx.PeekResume(resilient.TagCertify); data != nil {
		ck, err := DecodeCertifyCheckpoint(data)
		if err != nil {
			return nil, err
		}
		if ck.Matches(g, maxVisits) {
			ctx.TakeResume(resilient.TagCertify)
			ck.restore(c)
			startRoot, midRoot = c.rootIdx, len(c.stack) > 0
			if rec != nil {
				rec.Add("certify.resumes", 1)
				rec.Event("certify.resume",
					obs.F{Key: "root", Value: startRoot},
					obs.F{Key: "visits", Value: c.visits},
					obs.F{Key: "stack", Value: len(c.stack)})
			}
		}
	}
	for ri := startRoot; ri < len(g.Inits); ri++ {
		c.rootIdx = ri
		// Root boundaries are interruption points too: small graphs never
		// reach the 256-step poll, and a root-top cut (empty stack) is the
		// cheapest checkpoint there is.
		if err := c.stop(); err != nil {
			return nil, err
		}
		var (
			w   *Witness
			err error
		)
		var rsp obs.TraceSpan
		if tr != nil {
			rsp = tr.Begin("certify.root", root.ID)
		}
		if ri == startRoot && midRoot {
			// Continue the interrupted root exactly where the stack left it:
			// its root node and bitset are re-derived, not re-entered.
			c.root = g.Inits[ri]
			c.inputs = c.cp.rootInputs[ri]
			c.bs = c.bitset(c.inputs)
			w, err = c.loop()
		} else {
			w, err = c.run(g.Inits[ri])
		}
		if tr != nil {
			tr.End(rsp)
		}
		if err != nil {
			return nil, err
		}
		if w != nil {
			w.Explored = c.visits
			c.finish(rec, w)
			return w, nil
		}
	}
	w := &Witness{Kind: OK, Explored: c.visits}
	c.finish(rec, w)
	return w, nil
}

// finish publishes the certification's counters and emits certify.done.
// The visited-bitset density — visits over (nodes × input-mask bitsets) —
// is how full the memo got: near 100% means the search was bound by the
// graph, not by pruning.
func (c *graphCertifier) finish(rec obs.Recorder, w *Witness) {
	if rec == nil {
		return
	}
	rec.Add("certify.runs", 1)
	rec.Add("certify.visits", int64(c.visits))
	rec.Set("certify.explored", int64(c.visits))
	densityPct := int64(0)
	if cells := int64(c.g.Len()) * int64(len(c.visited)); cells > 0 {
		densityPct = int64(c.visits) * 100 / cells
	}
	rec.Set("certify.bitset_density_pct", densityPct)
	rec.Event("certify.done",
		obs.F{Key: "engine", Value: "graph"},
		obs.F{Key: "verdict", Value: w.Kind.String()},
		obs.F{Key: "explored", Value: w.Explored},
		obs.F{Key: "bitsets", Value: len(c.visited)},
		obs.F{Key: "density_pct", Value: densityPct})
}

// CertifyFastCtx is Certify through the graph-backed engine: it
// materializes the model's state graph to `bound` layers (deterministically,
// drawing on the model's shared successor cache) and runs CertifyGraphCtx
// over it, falling back to the recursive Certify when the explored graph is
// not graded. Verdict and witness are identical to Certify's; the
// difference is that the whole graph is explored up front rather than
// lazily, which is faster for certifications that visit most of it.
//
// ctx (nil never cancels) is polled by the graph-backed path only: the
// exploration checks it at layer boundaries, the certification at root
// boundaries and every 256 DFS steps, and whichever phase is interrupted
// attaches its own checkpoint to the error. A resumed run re-derives the
// already-complete phase deterministically (re-exploring is bit-identical),
// so one saved certify snapshot suffices to finish the whole call. The
// ErrNotGraded fallback runs the recursive Certify, which does not poll
// ctx.
func CertifyFastCtx(ctx *resilient.Ctx, m core.Model, bound, maxVisits int) (*Witness, error) {
	g, err := core.ExploreIDCtx(ctx, m, bound, 0, 0)
	if err != nil {
		return nil, err
	}
	w, err := CertifyGraphCtx(ctx, g, maxVisits)
	if errors.Is(err, ErrNotGraded) {
		return Certify(m, bound, maxVisits)
	}
	return w, err
}

// gframe is one DFS stack entry: a node being expanded, the CSR edge it was
// entered through (-1 for the root), and the cursor of its next out-edge.
type gframe struct {
	node uint32
	via  int32
	next uint32
}

type graphCertifier struct {
	g         *core.IDGraph
	ctx       *resilient.Ctx
	cp        *certPlanes
	maxVisits int
	visits    int
	// steps counts DFS loop iterations; every 256th polls the context and
	// the certify.visit fault point.
	steps int
	// rootIdx is the cursor into g.Inits, part of the checkpoint.
	rootIdx int
	// visited[inputs] is the per-input-mask node bitset replacing the
	// recursive certifier's map[certMemoKey]bool.
	visited map[uint64][]uint64
	bs      []uint64
	root    uint32
	inputs  uint64
	stack   []gframe
}

// bitset returns (creating on first use) the visited bitset for an input
// mask.
func (c *graphCertifier) bitset(inputs uint64) []uint64 {
	bs := c.visited[inputs]
	if bs == nil {
		bs = make([]uint64, (c.g.Len()+63)/64)
		c.visited[inputs] = bs
	}
	return bs
}

// run certifies the subgraph reachable from one root.
func (c *graphCertifier) run(root uint32) (*Witness, error) {
	g := c.g
	c.inputs = c.cp.rootInputs[c.rootIdx]
	c.bs = c.bitset(c.inputs)
	c.root = root
	c.stack = c.stack[:0]

	if c.seen(root) {
		return nil, nil
	}
	if w, err := c.enter(root, -1); w != nil || err != nil {
		return w, err
	}
	if int(g.DepthOf[root]) >= g.Depth {
		return nil, nil
	}
	c.stack = append(c.stack, gframe{node: root, via: -1, next: g.EdgeStart[root]})
	return c.loop()
}

// loop drains the DFS stack. It is the shared tail of a fresh root and a
// checkpoint resume: everything it needs — stack, bitset, root, inputs —
// is certifier state, and every 256th iteration is an interruption point
// whose cut is exactly that state.
func (c *graphCertifier) loop() (*Witness, error) {
	g := c.g
	cp := c.cp
	for len(c.stack) > 0 {
		c.steps++
		if c.steps&255 == 0 {
			if err := c.stop(); err != nil {
				return nil, err
			}
		}
		top := &c.stack[len(c.stack)-1]
		u := top.node
		if top.next == g.EdgeStart[u+1] {
			c.stack = c.stack[:len(c.stack)-1]
			continue
		}
		e := top.next
		top.next++
		v := g.EdgeTo[e]
		if cp.bit(cp.woBad, e) {
			// Dirty edge (precomputed: a decision changes across it):
			// rebuild the exact witness with the original check.
			if w := checkWriteOnce(g.States[u], g.States[v]); w != nil {
				w.Exec = c.execTo(int32(e))
				w.Detail = fmt.Sprintf("%s (action %s)", w.Detail, g.EdgeAction[e])
				return w, nil
			}
		}
		if c.seen(v) {
			continue
		}
		if w, err := c.enter(v, int32(e)); w != nil || err != nil {
			return w, err
		}
		if int(g.DepthOf[v]) < g.Depth {
			c.stack = append(c.stack, gframe{node: v, via: int32(e), next: g.EdgeStart[v]})
		}
	}
	return nil, nil
}

// stop polls the context and the certify.visit fault point; on
// interruption it snapshots the certifier into a checkpoint and attaches
// it to the returned error. Injected budget faults are routed through
// ErrBudget so they surface exactly like a real exhausted visit budget.
func (c *graphCertifier) stop() error {
	err := chaos.Check(c.ctx, "certify.visit")
	if err == nil {
		return nil
	}
	var f *chaos.Fault
	if errors.As(err, &f) && f.Kind == chaos.KindBudget {
		err = fmt.Errorf("%w: %w", ErrBudget, err)
	}
	if rec := obs.Active(); rec != nil {
		rec.Add("certify.interrupts", 1)
		rec.Event("certify.interrupted",
			obs.F{Key: "root", Value: c.rootIdx},
			obs.F{Key: "visits", Value: c.visits},
			obs.F{Key: "cause", Value: err.Error()})
	}
	werr := fmt.Errorf("valence: certification interrupted after %d visits: %w", c.visits, err)
	return resilient.WithCheckpoint(werr, c.checkpoint())
}

// enter performs the first (and only) visit of a node: mark it, count it,
// and check the state-local requirements — agreement and validity always,
// decision when the node sits at the bound. The checks are plane reads; a
// node flagged dirty re-runs the original checkState to build the exact
// witness (and to stay correct even if the flag over-approximated).
func (c *graphCertifier) enter(v uint32, via int32) (*Witness, error) {
	c.mark(v)
	c.visits++
	if c.maxVisits > 0 && c.visits > c.maxVisits {
		return nil, fmt.Errorf("after %d visits: %w", c.visits, ErrBudget)
	}
	cp := c.cp
	if cp.dvals[v]&^c.inputs != 0 || cp.bit(cp.agreeBad, v) {
		if w := checkState(c.g.States[v], c.inputs); w != nil {
			w.Exec = c.execTo(via)
			return w, nil
		}
	}
	if int(c.g.DepthOf[v]) >= c.g.Depth && !cp.bit(cp.allDec, v) {
		return &Witness{
			Kind:   UndecidedAtBound,
			Exec:   c.execTo(via),
			Detail: fmt.Sprintf("a non-failed process is undecided after %d layers", c.g.Depth),
		}, nil
	}
	return nil, nil
}

// execTo rebuilds the execution from the current root along the DFS stack,
// extended by finalEdge when >= 0. Called only on violation.
func (c *graphCertifier) execTo(finalEdge int32) *core.Execution {
	g := c.g
	steps := make([]core.Step, 0, len(c.stack)+1)
	for _, f := range c.stack {
		if f.via >= 0 {
			steps = append(steps, core.Step{Action: g.EdgeAction[f.via], State: g.States[f.node]})
		}
	}
	if finalEdge >= 0 {
		steps = append(steps, core.Step{Action: g.EdgeAction[finalEdge], State: g.States[g.EdgeTo[finalEdge]]})
	}
	return &core.Execution{Init: g.States[c.root], Steps: steps}
}

func (c *graphCertifier) seen(u uint32) bool {
	return c.bs[u>>6]&(1<<(u&63)) != 0
}

func (c *graphCertifier) mark(u uint32) {
	c.bs[u>>6] |= 1 << (u & 63)
}
