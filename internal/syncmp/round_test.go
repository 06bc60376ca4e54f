package syncmp_test

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/proto"
	"repro/internal/protocols"
	"repro/internal/syncmp"
)

// refSucc is one successor of the reference enumeration.
type refSucc struct {
	action string
	state  *syncmp.State
}

// refEnum enumerates a state's successors the way the models did before
// the round engine: one full per-action round (syncmp.RefApply) per
// action, labels built per action.
type refEnum func(x *syncmp.State) []refSucc

func prefixLabel(j, k int) string { return "(" + strconv.Itoa(j) + ",[" + strconv.Itoa(k) + "])" }

// refSync is the S1 / S^t / general-omission S^t layer.
func refSync(p proto.SyncProtocol, n, t int, budget, general bool) refEnum {
	return func(x *syncmp.State) []refSucc {
		out := []refSucc{{"noop", syncmp.RefApply(p, x, nil, x.Failed(), true, general)}}
		if budget && x.FailedCount() >= t {
			return out
		}
		for j := 0; j < n; j++ {
			if x.FailedAt(j) {
				continue
			}
			for k := 1; k <= n; k++ {
				lost := map[int]uint64{j: syncmp.OmitMask(k)}
				out = append(out, refSucc{prefixLabel(j, k),
					syncmp.RefApply(p, x, lost, x.Failed()|1<<uint(j), true, general)})
			}
		}
		return out
	}
}

// refMulti is the multi-failure S^t layer, built depth-first.
func refMulti(p proto.SyncProtocol, n, t, c int) refEnum {
	return func(x *syncmp.State) []refSucc {
		out := []refSucc{{"noop", syncmp.RefApply(p, x, nil, x.Failed(), true, false)}}
		limit := min(c, t-x.FailedCount())
		var alive []int
		for j := 0; j < n; j++ {
			if !x.FailedAt(j) {
				alive = append(alive, j)
			}
		}
		var build func(start int, oms []syncmp.Omission)
		build = func(start int, oms []syncmp.Omission) {
			if len(oms) > 0 {
				lost := make(map[int]uint64)
				failed := x.Failed()
				var parts []string
				for _, om := range oms {
					lost[om.J] = syncmp.OmitMask(om.K)
					failed |= 1 << uint(om.J)
					parts = append(parts, prefixLabel(om.J, om.K))
				}
				out = append(out, refSucc{strings.Join(parts, "+"), syncmp.RefApply(p, x, lost, failed, true, false)})
			}
			if len(oms) == limit {
				return
			}
			for idx := start; idx < len(alive); idx++ {
				for k := 1; k <= n; k++ {
					build(idx+1, append(slices.Clone(oms), syncmp.Omission{J: alive[idx], K: k}))
				}
			}
		}
		build(0, nil)
		return out
	}
}

// refMobile is M^mf's S1 layer (full=false) or the unrestricted M^mf
// layer (full=true): nothing is recorded and nobody is silenced.
func refMobile(p proto.SyncProtocol, n int, full bool) refEnum {
	return func(x *syncmp.State) []refSucc {
		out := []refSucc{{"noop", syncmp.RefApply(p, x, nil, 0, false, false)}}
		for j := 0; j < n; j++ {
			if !full {
				for k := 1; k <= n; k++ {
					lost := map[int]uint64{j: syncmp.OmitMask(k)}
					out = append(out, refSucc{prefixLabel(j, k), syncmp.RefApply(p, x, lost, 0, false, false)})
				}
				continue
			}
			for g := uint64(1); g < 1<<uint(n); g++ {
				lost := map[int]uint64{j: g}
				out = append(out, refSucc{fmt.Sprintf("(%d,G=%0*b)", j, n, g), syncmp.RefApply(p, x, lost, 0, false, false)})
			}
		}
		return out
	}
}

// syncProtocols are the seven synchronous protocols of the repository.
func syncProtocols() []proto.SyncProtocol {
	return []proto.SyncProtocol{
		protocols.FloodSet{Rounds: 2},
		protocols.EarlyFloodSet{MaxRounds: 3},
		protocols.EIG{Rounds: 2},
		protocols.FullInfo{},
		protocols.DecideRule{
			P:        protocols.FullInfo{},
			RuleName: "parity",
			Rule: func(s string) (int, bool) {
				if !strings.HasPrefix(s, "1:V") {
					return 0, false
				}
				return len(s) % 2, true
			},
		},
		protocols.ConstantDecider{Value: 0},
		protocols.FlickerDecider{},
	}
}

// engineCase is one model constructor with its reference enumeration.
type engineCase struct {
	name  string
	model func(p proto.SyncProtocol) core.Model
	ref   func(p proto.SyncProtocol) refEnum
	depth int
}

func engineCases() []engineCase {
	const n, t = 3, 2
	return []engineCase{
		{"S1", func(p proto.SyncProtocol) core.Model { return syncmp.NewS1(p, n) },
			func(p proto.SyncProtocol) refEnum { return refSync(p, n, n, false, false) }, 3},
		{"St", func(p proto.SyncProtocol) core.Model { return syncmp.NewSt(p, n, t) },
			func(p proto.SyncProtocol) refEnum { return refSync(p, n, t, true, false) }, 3},
		{"StGeneral", func(p proto.SyncProtocol) core.Model { return syncmp.NewStGeneral(p, n, t) },
			func(p proto.SyncProtocol) refEnum { return refSync(p, n, t, true, true) }, 3},
		{"StMulti", func(p proto.SyncProtocol) core.Model { return syncmp.NewStMulti(p, n, t, 2) },
			func(p proto.SyncProtocol) refEnum { return refMulti(p, n, t, 2) }, 2},
		{"mobile", func(p proto.SyncProtocol) core.Model { return mobile.New(p, n) },
			func(p proto.SyncProtocol) refEnum { return refMobile(p, n, false) }, 3},
		{"mobileFull", func(p proto.SyncProtocol) core.Model { return mobile.NewFull(p, n) },
			func(p proto.SyncProtocol) refEnum { return refMobile(p, n, true) }, 2},
	}
}

// TestRoundEngineMatchesPerAction holds the round engine to the per-action
// path it replaced: for every synchronous protocol under every synchronous
// model, every successor of every state to the case's depth has the same
// action label, key, decisions, failed set and inputs as the one
// RefApply computes by re-running the whole round for that action. It
// then checks that exploring at 4 workers builds the same graph as at 1.
func TestRoundEngineMatchesPerAction(t *testing.T) {
	for _, p := range syncProtocols() {
		for _, c := range engineCases() {
			t.Run(c.name+"/"+p.Name(), func(t *testing.T) {
				m, ref := c.model(p), c.ref(p)
				enum := core.CacheOf(m).Uncached()
				frontier := m.Inits()
				seen := make(map[string]bool)
				for d := 0; d < c.depth; d++ {
					var next []core.State
					for _, x := range frontier {
						got, want := enum.Successors(x), ref(x.(*syncmp.State))
						compareSuccs(t, x.Key(), got, want)
						for _, s := range got {
							if !seen[s.State.Key()] {
								seen[s.State.Key()] = true
								next = append(next, s.State)
							}
						}
					}
					frontier = next
				}
				g1, err := core.ExploreIDCtx(nil, c.model(p), c.depth, 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				g4, err := core.ExploreIDCtx(nil, c.model(p), c.depth, 0, 4)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(g1.Keys, g4.Keys) || !slices.Equal(g1.DepthOf, g4.DepthOf) ||
					!slices.Equal(g1.EdgeStart, g4.EdgeStart) || !slices.Equal(g1.EdgeAction, g4.EdgeAction) ||
					!slices.Equal(g1.EdgeTo, g4.EdgeTo) {
					t.Errorf("workers=4 graph (%d nodes, %d edges) differs from workers=1 (%d nodes, %d edges)",
						g4.Len(), g4.NumEdges(), g1.Len(), g1.NumEdges())
				}
			})
		}
	}
}

func compareSuccs(t *testing.T, parent string, got []core.Succ, want []refSucc) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("from %q: %d successors, reference has %d", parent, len(got), len(want))
	}
	for i, w := range want {
		g, ok := got[i].State.(*syncmp.State)
		if !ok {
			t.Fatalf("from %q: successor %d is %T", parent, i, got[i].State)
		}
		if got[i].Action != w.action {
			t.Fatalf("from %q: action %d is %q, reference %q", parent, i, got[i].Action, w.action)
		}
		if g.Key() != w.state.Key() || g.EnvKey() != w.state.EnvKey() {
			t.Fatalf("from %q under %s: key %q, reference %q", parent, w.action, g.Key(), w.state.Key())
		}
		for j := 0; j < g.N(); j++ {
			gv, gok := g.Decided(j)
			wv, wok := w.state.Decided(j)
			if gv != wv || gok != wok || g.FailedAt(j) != w.state.FailedAt(j) || g.InputOf(j) != w.state.InputOf(j) {
				t.Fatalf("from %q under %s: process %d has (decided %d,%v failed %v input %d), reference (%d,%v %v %d)",
					parent, w.action, j, gv, gok, g.FailedAt(j), g.InputOf(j), wv, wok, w.state.FailedAt(j), w.state.InputOf(j))
			}
		}
	}
}
