package simplex

import (
	"sort"

	"repro/internal/graph"
)

// Complex is a set of simplexes closed under containment. Adding a simplex
// adds all of its faces. The zero value is not usable; use NewComplex.
type Complex struct {
	bySize map[int]map[string]Simplex
	max    int
}

// NewComplex returns an empty complex, optionally seeded with simplexes.
func NewComplex(simplexes ...Simplex) *Complex {
	c := &Complex{bySize: make(map[int]map[string]Simplex)}
	for _, s := range simplexes {
		c.Add(s)
	}
	return c
}

// Add inserts s and all of its faces.
func (c *Complex) Add(s Simplex) {
	size := s.Size()
	if c.has(s) {
		return
	}
	for k := 0; k <= size; k++ {
		m := c.bySize[k]
		if m == nil {
			m = make(map[string]Simplex)
			c.bySize[k] = m
		}
		for _, f := range s.Faces(k) {
			m[f.Key()] = f
		}
	}
	if size > c.max {
		c.max = size
	}
}

func (c *Complex) has(s Simplex) bool {
	m := c.bySize[s.Size()]
	if m == nil {
		return false
	}
	_, ok := m[s.Key()]
	return ok
}

// Has reports whether s is a simplex of the complex.
func (c *Complex) Has(s Simplex) bool { return c.has(s) }

// MaxSize returns the size of the largest simplex in the complex.
func (c *Complex) MaxSize() int { return c.max }

// Simplexes returns the simplexes of exactly the given size, sorted by Key
// for determinism.
func (c *Complex) Simplexes(size int) []Simplex {
	m := c.bySize[size]
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Simplex, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// Len returns the total number of simplexes (all sizes, excluding the empty
// simplex).
func (c *Complex) Len() int {
	total := 0
	for size, m := range c.bySize {
		if size == 0 {
			continue
		}
		total += len(m)
	}
	return total
}

// Union returns a new complex containing the simplexes of both.
func (c *Complex) Union(d *Complex) *Complex {
	out := NewComplex()
	for size := c.max; size >= 1; size-- {
		for _, s := range c.Simplexes(size) {
			out.Add(s)
		}
	}
	for size := d.max; size >= 1; size-- {
		for _, s := range d.Simplexes(size) {
			out.Add(s)
		}
	}
	return out
}

// ThickConnected reports whether the complex is k-thick-connected at
// dimension n: for every pair of n-size-simplexes there is a chain of
// n-size-simplexes from one to the other in which every two consecutive
// simplexes share an (n-k)-size face. An empty or singleton set of
// n-size-simplexes is trivially connected.
func (c *Complex) ThickConnected(n, k int) bool {
	g, _ := c.thickGraph(n, k)
	return g.Connected()
}

// ThickComponents returns the components of the k-thick adjacency graph on
// the n-size-simplexes, each as a sorted list of simplex keys.
func (c *Complex) ThickComponents(n, k int) [][]string {
	g, tops := c.thickGraph(n, k)
	var out [][]string
	for _, comp := range g.Components() {
		keys := make([]string, 0, len(comp))
		for _, v := range comp {
			keys = append(keys, tops[v].Key())
		}
		sort.Strings(keys)
		out = append(out, keys)
	}
	return out
}

func (c *Complex) thickGraph(n, k int) (*graph.Undirected, []Simplex) {
	tops := c.Simplexes(n)
	g := graph.NewUndirected(len(tops))
	thickEdges(intersectSizes(tops), len(tops), n-k, g.AddEdge)
	return g, tops
}

// intersectSizes returns the pairwise intersection sizes of tops as a T×T
// row-major matrix with the entries above the diagonal filled. Every
// k-thick adjacency is this matrix thresholded at n-k, so one matrix
// serves every k.
func intersectSizes(tops []Simplex) []int32 {
	t := len(tops)
	out := make([]int32, t*t)
	for i := range tops {
		for j := i + 1; j < t; j++ {
			out[i*t+j] = int32(tops[i].IntersectSize(tops[j]))
		}
	}
	return out
}

// thickEdges calls add(i, j) for every edge of the k-thick adjacency graph
// over T simplexes: each pair i < j whose intersection, read off the
// intersectSizes matrix, has at least need = n-k vertices.
func thickEdges(inter []int32, t, need int, add func(i, j int)) {
	for i := 0; i < t; i++ {
		for j := i + 1; j < t; j++ {
			if int(inter[i*t+j]) >= need {
				add(i, j)
			}
		}
	}
}
