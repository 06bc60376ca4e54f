package graph

import (
	"math/rand"
	"testing"
)

// TestDenseConnectedWithinMatchesUndirected: on random graphs, at widths
// below, at and across the 64-bit word boundary, the bitset BFS agrees
// with the connectivity of the induced subgraph built as adjacency lists.
func TestDenseConnectedWithinMatchesUndirected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	verdicts := map[bool]int{}
	for _, n := range []int{0, 1, 5, 64, 65, 130} {
		for trial := 0; trial < 30; trial++ {
			d := NewDense(n)
			var edges [][2]int
			p := rng.Float64() * 0.1
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if rng.Float64() < p {
						d.AddEdge(u, v)
						edges = append(edges, [2]int{u, v})
					}
				}
			}
			member := make([]uint64, d.Words())
			var in []int
			pos := make([]int, n)
			for v := 0; v < n; v++ {
				if rng.Intn(3) > 0 {
					member[v/64] |= 1 << uint(v%64)
					pos[v] = len(in)
					in = append(in, v)
				}
			}
			induced := NewUndirected(len(in))
			for _, e := range edges {
				if member[e[0]/64]&(1<<uint(e[0]%64)) != 0 && member[e[1]/64]&(1<<uint(e[1]%64)) != 0 {
					induced.AddEdge(pos[e[0]], pos[e[1]])
				}
			}
			got, want := d.ConnectedWithin(member), induced.Connected()
			if got != want {
				t.Fatalf("n=%d trial %d: ConnectedWithin = %v, induced subgraph connected = %v", n, trial, got, want)
			}
			if len(in) > 1 {
				verdicts[want]++
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("nontrivial verdicts %v: both outcomes must occur", verdicts)
	}
}
