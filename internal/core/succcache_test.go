package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/syncmp"
)

// TestCachedSuccessorsAreInterned: after an explore, every cached
// successor's State is the very state interned under its id, so duplicate
// successors found by the enumerator are not retained by the cache.
func TestCachedSuccessorsAreInterned(t *testing.T) {
	for _, m := range []core.Model{
		mobile.New(protocols.FloodSet{Rounds: 2}, 3),
		syncmp.NewSt(protocols.FloodSet{Rounds: 2}, 3, 1),
	} {
		g, err := core.ExploreIDCtx(nil, m, 2, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		c := core.CacheOf(m)
		checked := 0
		for u, x := range g.States {
			if int(g.DepthOf[u]) >= g.Depth {
				continue
			}
			succs, ids := c.SuccessorsOf(c.ID(x), x)
			for i := range succs {
				if succs[i].State != c.StateOf(ids[i]) {
					t.Fatalf("%s: successor %q of %q is not the interned state", m.Name(), succs[i].Action, x.Key())
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no cached successors checked", m.Name())
		}
	}
}
