package valence

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilient"
)

// Field is the whole-graph form of the valence Oracle: the valence mask of
// every node of a materialized IDGraph, computed bottom-up in O(V+E) by one
// reverse-layer dynamic-programming sweep —
//
//	mask[u] = decidedBits(u) | OR over CSR out-edges of children masks
//
// — and stored as two bit-planes: bit u of plane0 (plane1) is set when node
// u is 0-valent (1-valent), 64 nodes per uint64 word. No maps, no
// recursion, no per-node bytes. For a graph explored to depth B, Mask(u)
// equals Oracle.Valences(state(u), B-depth(u)): the residual exploration
// depth is exactly the valence horizon at u, so one field answers every
// per-layer valence question the experiments ask (the
// DecreasingHorizon(B, 0) schedule) without re-walking overlapping futures.
//
// The sweep is serial and per node: each layer, deepest first, writes its
// nodes' two bits from the per-graph cached decided planes (fieldPlanesOf,
// so a sweep makes no State interface calls) OR the bits of their children,
// which the deeper layer has already finished; a node stops scanning its
// edges once both bits are set. Graphs that are not graded — the
// asynchronous families can produce same-depth shortcut edges at small n,
// and hand-built graphs can do anything — fall back to reverse sweeps
// iterated to fixpoint (masks grow monotonically under OR, so the
// iteration converges); there the mask means "valence within the explored
// graph": the OR of decided bits over every reachable recorded node.
type Field struct {
	g *core.IDGraph
	// fp is the graph's cached decided-bit planes (shared, immutable).
	fp *fieldPlanes
	// plane0/plane1 hold the field: bit u set = V0 (V1) in node u's mask.
	plane0, plane1 []uint64
}

// NewFieldCtx computes the valence field of g under a cancellation context
// (nil never cancels), polled — with the chaos field.layer fault point and
// the soft memory limit — once per layer. An interruption returns the
// partial field alongside an error carrying a resilient.Checkpointer with
// the masks computed so far and the next unfinished layer; resuming with
// that snapshot (resilient.TagField, validated against a fingerprint of
// the graph) yields a field bit-identical to an uninterrupted sweep's.
//
// Non-graded graphs fall back to fixpoint iteration, which polls the
// context once per pass but is not checkpointed (the fallback exists for
// small, hand-built, or shortcut-edged graphs).
func NewFieldCtx(ctx *resilient.Ctx, g *core.IDGraph) (*Field, error) {
	rec := obs.Active()
	defer obs.Span(rec, "field.time")()
	tr := obs.Trace()
	var root obs.TraceSpan
	if tr != nil {
		root = tr.Begin("field", 0)
		defer tr.End(root)
	}
	words := (g.Len() + 63) / 64
	if rec != nil {
		rec.Add("field.sweeps", 1)
		rec.Add("field.nodes", int64(g.Len()))
		rec.Add("field.words", int64(2*words))
	}
	f := &Field{
		g:      g,
		fp:     fieldPlanesOf(g),
		plane0: make([]uint64, words),
		plane1: make([]uint64, words),
	}
	if !g.Graded() {
		return f, f.fixpoint(ctx, rec)
	}
	start := g.NumLayers() - 1
	if data := ctx.PeekResume(resilient.TagField); data != nil {
		ck, err := DecodeFieldCheckpoint(data)
		if err != nil {
			return f, err
		}
		if ck.Matches(g) {
			ctx.TakeResume(resilient.TagField)
			f.loadMasks(ck.Masks)
			start = ck.NextLayer
			if rec != nil {
				rec.Add("field.resumes", 1)
				rec.Event("field.resume",
					obs.F{Key: "next_layer", Value: start},
					obs.F{Key: "nodes", Value: g.Len()})
			}
		}
	}
	for d := start; d >= 0; d-- {
		if err := chaos.Check(ctx, "field.layer"); err != nil {
			return f, f.interrupted(rec, d, err)
		}
		if err := resilient.MemPressure(); err != nil {
			// Same checkpointable boundary as a cancellation: the
			// Supervisor resumes the sweep instead of failing it.
			return f, f.interrupted(rec, d, err)
		}
		var lsp obs.TraceSpan
		if tr != nil {
			lsp = tr.Begin("field.layer", root.ID)
		}
		var t0 time.Time
		if rec != nil {
			t0 = time.Now() //lint:nondet feeds layer-timing instrumentation only
		}
		layer := g.Layer(d)
		f.sweepNodes(layer)
		if tr != nil {
			tr.End(lsp)
		}
		if rec != nil {
			elapsed := time.Since(t0)
			rec.Observe("field.layer.time", elapsed)
			rec.Record("field.layer.width", int64(len(layer)))
			rec.Event("field.layer",
				obs.F{Key: "depth", Value: d},
				obs.F{Key: "width", Value: len(layer)},
				obs.F{Key: "ns", Value: elapsed.Nanoseconds()})
		}
	}
	return f, nil
}

// fixpoint is the non-graded fallback: descending-id sweeps over every
// node, OR-ing new bits in, until a pass changes nothing.
func (f *Field) fixpoint(ctx *resilient.Ctx, rec obs.Recorder) error {
	g := f.g
	for iters := 1; ; iters++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("valence: field fixpoint interrupted after %d iterations: %w", iters-1, err)
		}
		changed := false
		for u := g.Len() - 1; u >= 0; u-- {
			wi, sh := u>>6, uint(u)&63
			old0, old1 := f.plane0[wi]>>sh&1, f.plane1[wi]>>sh&1
			m0, m1 := f.nodeBits(uint32(u))
			if m0&^old0 != 0 || m1&^old1 != 0 {
				f.plane0[wi] |= m0 << sh
				f.plane1[wi] |= m1 << sh
				changed = true
			}
		}
		if !changed {
			if rec != nil {
				rec.Add("field.fixpoint.iterations", int64(iters))
				rec.Event("field.fixpoint",
					obs.F{Key: "nodes", Value: g.Len()},
					obs.F{Key: "iterations", Value: iters})
			}
			return nil
		}
	}
}

// loadMasks restores the planes from a checkpoint's byte-per-node view.
func (f *Field) loadMasks(masks []uint8) {
	clear(f.plane0)
	clear(f.plane1)
	for u, m := range masks {
		bit := uint64(1) << (uint(u) & 63)
		if m&V0 != 0 {
			f.plane0[u>>6] |= bit
		}
		if m&V1 != 0 {
			f.plane1[u>>6] |= bit
		}
	}
}

// interrupted finalizes a sweep cut: layers above nextLayer are complete in
// the planes, layer nextLayer may be partially written, and the checkpoint
// records exactly that (in the stable byte-per-node encoding), attached to
// the returned error.
func (f *Field) interrupted(rec obs.Recorder, nextLayer int, cause error) error {
	if rec != nil {
		rec.Add("field.interrupts", 1)
		rec.Event("field.interrupted",
			obs.F{Key: "next_layer", Value: nextLayer},
			obs.F{Key: "cause", Value: cause.Error()})
	}
	ck := &FieldCheckpoint{
		Fingerprint: graphFingerprint(f.g),
		NextLayer:   nextLayer,
		Masks:       f.Masks(),
	}
	err := fmt.Errorf("valence: field sweep interrupted at layer %d: %w", nextLayer, cause)
	return resilient.WithCheckpoint(err, ck)
}

// sweepNodes writes the plane bits of one layer's nodes, whose children's
// bits are final. A layer boundary can cut a plane word, so each node's
// two bits are merged into its word without touching its neighbors'.
//lint:hotpath
func (f *Field) sweepNodes(layer []uint32) {
	for _, u := range layer {
		m0, m1 := f.nodeBits(u)
		wi, sh := u>>6, u&63
		f.plane0[wi] = f.plane0[wi]&^(1<<sh) | m0<<sh
		f.plane1[wi] = f.plane1[wi]&^(1<<sh) | m1<<sh
	}
}

// nodeBits is the per-node transfer function on planes: decided bits OR
// all recorded children bits, early-exiting once both are set.
//lint:hotpath
func (f *Field) nodeBits(u uint32) (m0, m1 uint64) {
	g := f.g
	wi, sh := u>>6, u&63
	m0 = f.fp.d0[wi] >> sh & 1
	m1 = f.fp.d1[wi] >> sh & 1
	lo, hi := g.EdgeStart[u], g.EdgeStart[u+1]
	for e := lo; e < hi && m0&m1 == 0; e++ {
		v := g.EdgeTo[e]
		m0 |= f.plane0[v>>6] >> (v & 63) & 1
		m1 |= f.plane1[v>>6] >> (v & 63) & 1
	}
	return m0, m1
}

// Graph returns the underlying graph.
func (f *Field) Graph() *core.IDGraph { return f.g }

// Len returns the number of nodes.
func (f *Field) Len() int { return f.g.Len() }

// Mask returns node u's valence mask.
func (f *Field) Mask(u uint32) uint8 {
	wi, sh := u>>6, u&63
	return uint8(f.plane0[wi]>>sh&1)*V0 | uint8(f.plane1[wi]>>sh&1)*V1
}

// Masks materializes the byte-per-node view of the field — the shape the
// RSCK checkpoint sections and differential tests consume. The slice is
// fresh; mutating it does not affect the field.
func (f *Field) Masks() []uint8 {
	out := make([]uint8, f.g.Len())
	for u := range out {
		out[u] = f.Mask(uint32(u))
	}
	return out
}

// Horizon returns the valence horizon at node u: the residual exploration
// depth B - depth(u) that Mask(u) is exact for (on graded graphs).
func (f *Field) Horizon(u uint32) int { return f.g.Depth - int(f.g.DepthOf[u]) }

// Bivalent reports whether node u is bivalent within its residual horizon.
func (f *Field) Bivalent(u uint32) bool {
	wi, sh := u>>6, u&63
	return ((f.plane0[wi]&f.plane1[wi])>>sh)&1 != 0
}

// MaskOf returns the mask of the node holding state x, if x is in the
// graph.
func (f *Field) MaskOf(x core.State) (uint8, bool) {
	u, ok := f.g.NodeByKey(x.Key())
	if !ok {
		return 0, false
	}
	return f.Mask(u), true
}

// LayerMasks returns the masks of depth-d nodes in discovery order (a fresh
// slice), ready for ValenceConnected.
func (f *Field) LayerMasks(d int) []uint8 {
	layer := f.g.Layer(d)
	out := make([]uint8, len(layer))
	for i, u := range layer {
		out[i] = f.Mask(u)
	}
	return out
}

// Width classifies every node's valence into a WidthProfile by reading the
// field — the whole-graph replacement for BivalenceWidth with the exact
// DecreasingHorizon(B, 0) schedule.
func (f *Field) Width() *WidthProfile {
	nl := f.g.NumLayers()
	p := &WidthProfile{
		States:     make([]int, nl),
		Bivalent:   make([]int, nl),
		Univalent0: make([]int, nl),
		Univalent1: make([]int, nl),
		Null:       make([]int, nl),
	}
	for u := 0; u < f.g.Len(); u++ {
		d := f.g.DepthOf[u]
		p.States[d]++
		switch f.Mask(uint32(u)) {
		case V0 | V1:
			p.Bivalent[d]++
		case V0:
			p.Univalent0[d]++
		case V1:
			p.Univalent1[d]++
		default:
			p.Null[d]++
		}
	}
	return p
}

// AnalyzeNode is the field-backed AnalyzeLayer: the layer report of S(x)
// for the state at node u, with successor states read off the CSR edges and
// valences read off the field instead of per-state Oracle calls.
func (f *Field) AnalyzeNode(u uint32) *LayerReport {
	g := f.g
	r := &LayerReport{}
	actions, to := g.Out(u)
	index := make(map[uint32]int, len(to))
	var nodes []uint32
	for i, v := range to {
		j, seen := index[v]
		if !seen {
			j = len(r.States)
			index[v] = j
			nodes = append(nodes, v)
			r.States = append(r.States, g.States[v])
			r.Actions = append(r.Actions, nil)
		}
		r.Actions[j] = append(r.Actions[j], actions[i])
	}

	sg := SimilarityGraph(r.States)
	r.SimilarityConnected = sg.Connected()
	r.SimilarityComponents = len(sg.Components())
	r.SDiameter, _ = sg.Diameter()

	r.Valences = make([]uint8, len(nodes))
	for i, v := range nodes {
		r.Valences[i] = f.Mask(v)
		switch r.Valences[i] {
		case V0 | V1:
			r.BivalentIdx = append(r.BivalentIdx, i)
		case 0:
			r.NullValentIdx = append(r.NullValentIdx, i)
		}
	}
	r.ValenceConnected = ValenceConnected(r.Valences)
	return r
}

// BivalentChain runs the Lemma 4.1 chain construction over the field:
// starting from the first bivalent initial node, extend by the first
// bivalent CSR successor at every step. Valences are the field's — horizon
// B-d at depth d, the DecreasingHorizon(B, 0) schedule — so target must be
// at most the graph's depth. Like the Oracle-backed BivalentChain, a layer
// with no bivalent successor stops the construction and attaches that
// layer's report as the diagnostic.
func (f *Field) BivalentChain(target int) (*Chain, error) {
	g := f.g
	if target > g.Depth {
		return nil, fmt.Errorf("valence: chain target %d exceeds graph depth %d", target, g.Depth)
	}
	var u uint32
	found := false
	for _, r := range g.Inits {
		if f.Bivalent(r) {
			u, found = r, true
			break
		}
	}
	if !found {
		return nil, ErrNoBivalentInit
	}
	exec := &core.Execution{Init: g.States[u]}
	for d := 0; d < target; d++ {
		actions, to := g.Out(u)
		found = false
		for i, v := range to {
			if f.Bivalent(v) {
				exec = exec.Extend(actions[i], g.States[v])
				u, found = v, true
				break
			}
		}
		if !found {
			return &Chain{Exec: exec, Reached: d, Stuck: f.AnalyzeNode(u)}, nil
		}
	}
	return &Chain{Exec: exec, Reached: target}, nil
}

// BivalentAtBound scans layer d in discovery order for a bivalent node —
// bivalent within the residual horizon B-d — and returns the first one
// together with the execution reaching it, reconstructed by parent-pointer
// walkback. A bivalent state at a claimed decision bound is the Lemma 3.2
// refutation witness that decision has not occurred by layer d.
func (f *Field) BivalentAtBound(d int) (u uint32, exec *core.Execution, ok bool) {
	for _, v := range f.g.Layer(d) {
		if f.Bivalent(v) {
			return v, f.g.PathTo(v), true
		}
	}
	return 0, nil, false
}
