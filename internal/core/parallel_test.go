package core_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/syncmp"
)

func TestExploreParallelMatchesSerial(t *testing.T) {
	models := []struct {
		name  string
		m     core.Model
		depth int
	}{
		{"mobile", mobile.New(protocols.FloodSet{Rounds: 2}, 3), 2},
		{"mobile-full", mobile.NewFull(protocols.FloodSet{Rounds: 2}, 3), 1},
		{"sync-s1", syncmp.NewS1(protocols.FloodSet{Rounds: 2}, 3), 2},
		{"sync-st", syncmp.NewSt(protocols.FloodSet{Rounds: 2}, 3, 1), 2},
		{"sync-st-general", syncmp.NewStGeneral(protocols.FloodSet{Rounds: 2}, 3, 1), 2},
		{"sync-st-multi", syncmp.NewStMulti(protocols.FloodSet{Rounds: 2}, 3, 2, 2), 2},
	}
	for _, tc := range models {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := core.ExploreIDCtx(nil, tc.m, tc.depth, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 1, 2, 3, 8} {
				par, err := core.ExploreIDCtx(nil, tc.m, tc.depth, 0, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				idGraphsIdentical(t, serial, par)
			}
		})
	}
}

func TestExploreParallelBudgetMatchesSerial(t *testing.T) {
	const budget = 25
	mkModel := func() core.Model { return mobile.New(protocols.FloodSet{Rounds: 3}, 3) }
	serial, serr := core.ExploreIDCtx(nil, mkModel(), 3, budget, 1)
	if !errors.Is(serr, core.ErrNodeBudget) {
		t.Fatalf("serial err = %v", serr)
	}
	par, perr := core.ExploreIDCtx(nil, mkModel(), 3, budget, 4)
	if !errors.Is(perr, core.ErrNodeBudget) {
		t.Fatalf("parallel err = %v", perr)
	}
	if serr.Error() != perr.Error() {
		t.Errorf("error text differs: %q vs %q", serr, perr)
	}
	idGraphsIdentical(t, serial, par)
}

func TestSuccessorCacheSharing(t *testing.T) {
	m := mobile.New(protocols.FloodSet{Rounds: 2}, 3)
	c := core.CacheOf(m)
	if c != core.CacheOf(m) {
		t.Fatal("model did not share one cache across CacheOf calls")
	}
	g, err := core.ExploreIDCtx(nil, m, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cache != c {
		t.Fatal("explored graph not drawing from the model's shared cache")
	}
	after := c.Enumerations()
	// A second pass over the same model re-enumerates nothing.
	if _, err := core.ExploreIDCtx(nil, m, 2, 0, 1); err != nil {
		t.Fatal(err)
	}
	if c.Enumerations() != after {
		t.Errorf("second exploration enumerated %d extra states", c.Enumerations()-after)
	}
	// The cached Successors agree with the raw function.
	x := m.Inits()[0]
	raw := c.Uncached().Successors(x)
	got := m.Successors(x)
	if len(raw) != len(got) {
		t.Fatalf("cached successors %d, raw %d", len(got), len(raw))
	}
	for i := range raw {
		if raw[i].Action != got[i].Action || raw[i].State.Key() != got[i].State.Key() {
			t.Fatalf("successor %d differs through the cache", i)
		}
	}
}

func TestIDGraphStructure(t *testing.T) {
	m := mobile.New(protocols.FloodSet{Rounds: 2}, 3)
	ig, err := core.ExploreIDCtx(nil, m, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ig.Len() == 0 || ig.NumEdges() == 0 {
		t.Fatal("empty dense graph")
	}
	// Layers partition the nodes and agree with DepthOf.
	total := 0
	for d := 0; d <= 2; d++ {
		for _, u := range ig.Layer(d) {
			if int(ig.DepthOf[u]) != d {
				t.Fatalf("node %d in layer %d has DepthOf %d", u, d, ig.DepthOf[u])
			}
			total++
		}
	}
	if total != ig.Len() {
		t.Fatalf("layers cover %d of %d nodes", total, ig.Len())
	}
	// Every expanded node's CSR edges are its successors, in enumeration
	// order; frontier nodes have none.
	for u := range ig.States {
		actions, to := ig.Out(uint32(u))
		if int(ig.DepthOf[u]) == ig.Depth {
			if len(actions) != 0 {
				t.Fatalf("frontier node %d has %d CSR edges", u, len(actions))
			}
			continue
		}
		succs := m.Successors(ig.States[u])
		if len(actions) != len(succs) {
			t.Fatalf("node %d: %d CSR edges, %d successors", u, len(actions), len(succs))
		}
		for i, sc := range succs {
			if sc.Action != actions[i] || sc.State.Key() != ig.Keys[to[i]] {
				t.Fatalf("node %d edge %d differs from successor %d", u, i, i)
			}
		}
	}
}

func TestStatesAtDepthCached(t *testing.T) {
	m := mobile.New(protocols.FloodSet{Rounds: 2}, 3)
	g, err := core.ExploreIDCtx(nil, m, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	first := g.StatesAtDepth(1)
	second := g.StatesAtDepth(1)
	if len(first) == 0 {
		t.Fatal("no states at depth 1")
	}
	if &first[0] != &second[0] {
		t.Error("StatesAtDepth copied the layer on the second call")
	}
	// StatesAtDepth serves the layer's window of States in BFS discovery
	// order: exactly the Layer(1) nodes, in that order, with no copying.
	layer := g.Layer(1)
	if len(first) != len(layer) {
		t.Fatalf("depth-1 window has %d states, layer %d nodes", len(first), len(layer))
	}
	if &first[0] != &g.States[layer[0]] {
		t.Error("depth-1 window is a copy, not a view of States")
	}
	for i, u := range layer {
		if first[i] != g.States[u] {
			t.Fatalf("window[%d] is not layer node %d", i, u)
		}
	}
	if g.StatesAtDepth(3) != nil || g.StatesAtDepth(-1) != nil {
		t.Fatal("out-of-range depth should yield nil")
	}
}
