package graph

import "math/bits"

// Dense is an undirected graph over the vertices 0..n-1 stored as a bit
// matrix: row u holds ⌈n/64⌉ words, with bit v set when {u, v} is an edge.
// Vertex sets are bitsets of the same width, so testing whether a set
// induces a connected subgraph is a word-parallel BFS that allocates
// nothing. A Dense owns its BFS scratch and is not safe for concurrent use.
type Dense struct {
	words         int
	rows          []uint64
	reached, todo []uint64
}

// NewDense returns an edgeless dense graph on n vertices.
func NewDense(n int) *Dense {
	w := (n + 63) / 64
	buf := make([]uint64, (n+2)*w)
	return &Dense{words: w, rows: buf[:n*w], reached: buf[n*w : (n+1)*w], todo: buf[(n+1)*w:]}
}

// Words returns the width of a vertex bitset, ⌈n/64⌉.
func (g *Dense) Words() int { return g.words }

// AddEdge adds the undirected edge {u, v}. Self-loops are silently dropped.
func (g *Dense) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.rows[u*g.words+v/64] |= 1 << uint(v%64)
	g.rows[v*g.words+u/64] |= 1 << uint(u%64)
}

// ConnectedWithin reports whether the vertex set member, a bitset of
// Words() words, induces a connected subgraph. The empty set and a single
// vertex are connected.
func (g *Dense) ConnectedWithin(member []uint64) bool {
	w, reached, todo := g.words, g.reached, g.todo
	clear(reached)
	clear(todo)
	for i, m := range member {
		if m != 0 {
			reached[i], todo[i] = m&-m, m&-m
			break
		}
	}
	for i := 0; i < w; {
		if todo[i] == 0 {
			i++
			continue
		}
		u := i*64 + bits.TrailingZeros64(todo[i])
		todo[i] &= todo[i] - 1
		for j, r := range g.rows[u*w : (u+1)*w] {
			if fresh := r & member[j] &^ reached[j]; fresh != 0 {
				reached[j] |= fresh
				todo[j] |= fresh
				i = min(i, j)
			}
		}
	}
	for i, m := range member {
		if reached[i] != m {
			return false
		}
	}
	return true
}
