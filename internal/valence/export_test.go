package valence

import "repro/internal/core"

// ScalarMasks computes the valence field of g with a one-byte-per-node
// reverse sweep — the differential oracle the bit-plane field is pinned
// against by tests and benchmarked against by BenchmarkFieldSweep. Same
// transfer function, same layer order, same fixpoint fallback; no planes,
// no words, no caching.
func ScalarMasks(g *core.IDGraph) []uint8 {
	masks := make([]uint8, g.Len())
	node := func(u uint32) uint8 {
		m := uint8(core.DecidedValues(g.States[u]) & 0b11)
		lo, hi := g.EdgeStart[u], g.EdgeStart[u+1]
		for e := lo; e < hi && m != V0|V1; e++ {
			m |= masks[g.EdgeTo[e]]
		}
		return m
	}
	if g.Graded() {
		for d := g.NumLayers() - 1; d >= 0; d-- {
			for _, u := range g.Layer(d) {
				masks[u] = node(u)
			}
		}
		return masks
	}
	for changed := true; changed; {
		changed = false
		for u := g.Len() - 1; u >= 0; u-- {
			if m := node(uint32(u)) | masks[u]; m != masks[u] {
				masks[u] = m
				changed = true
			}
		}
	}
	return masks
}
