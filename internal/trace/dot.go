package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// DOTOptions configures GraphDOT rendering.
type DOTOptions struct {
	// MaxNodes truncates the rendering (0 = no limit); truncation adds an
	// ellipsis node.
	MaxNodes int
	// NodeLabel overrides the default label (decision flags) for a state.
	NodeLabel func(core.State) string
	// HighlightKeys are state keys to draw with a double border (e.g. a
	// witness run's states).
	HighlightKeys map[string]bool
}

// GraphDOT renders an explored state graph in Graphviz DOT format: one
// node per state (labeled with its decision/failure flags by default), one
// edge per layer action. Nodes are emitted in deterministic (depth, key)
// order, one rank per depth.
func GraphDOT(g *core.IDGraph, opts DOTOptions) string {
	label := opts.NodeLabel
	if label == nil {
		label = FormatState
	}
	ids := make([]uint32, g.Len())
	for u := range ids {
		ids[u] = uint32(u)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if g.DepthOf[a] != g.DepthOf[b] {
			return g.DepthOf[a] < g.DepthOf[b]
		}
		return g.Keys[a] < g.Keys[b]
	})
	if opts.MaxNodes > 0 && len(ids) > opts.MaxNodes {
		ids = ids[:opts.MaxNodes]
	}
	kept := make(map[uint32]int, len(ids))
	for i, u := range ids {
		kept[u] = i
	}

	var b strings.Builder
	b.WriteString("digraph layers {\n  rankdir=TB;\n  node [shape=box,fontname=\"monospace\"];\n")
	// ids is depth-sorted, so each depth is one contiguous run.
	for i := 0; i < len(ids); {
		d := g.DepthOf[ids[i]]
		b.WriteString("  { rank=same;")
		for ; i < len(ids) && g.DepthOf[ids[i]] == d; i++ {
			fmt.Fprintf(&b, " n%d;", i)
		}
		b.WriteString(" }\n")
	}
	for i, u := range ids {
		shape := ""
		if opts.HighlightKeys[g.Keys[u]] {
			shape = ",peripheries=2"
		}
		fmt.Fprintf(&b, "  n%d [label=%q%s];\n", i, fmt.Sprintf("d%d: %s", g.DepthOf[u], label(g.States[u])), shape)
	}
	truncated := false
	for i, u := range ids {
		actions, to := g.Out(u)
		for e, v := range to {
			dst, ok := kept[v]
			if !ok {
				truncated = true
				continue
			}
			fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", i, dst, actions[e])
		}
	}
	if truncated || (opts.MaxNodes > 0 && g.Len() > opts.MaxNodes) {
		b.WriteString("  ellipsis [label=\"…\",shape=plaintext];\n")
	}
	b.WriteString("}\n")
	return b.String()
}
