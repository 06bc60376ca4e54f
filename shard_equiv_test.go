package layers_test

// Equivalence property test for the sharded successor cache: published
// graphs must be bit-identical — node numbering, keys, depths, layers,
// inits, CSR edge order, and budget cut points — whether exploration draws
// from the hash-sharded SuccessorCache or the pinned single-lock
// LegacyCache, at any worker count, and across checkpoint/resume cuts.
// Cache ids are racy under parallel warming; the deterministic
// frontier-order merge is what canonicalizes the published graph, and this
// test is the pin. Run under -race via the Makefile race target.

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/asyncmp"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/iis"
	"repro/internal/mobile"
	"repro/internal/proto"
	"repro/internal/protocols"
	"repro/internal/resilient"
	"repro/internal/shmem"
	"repro/internal/snapshot"
	"repro/internal/syncmp"
)

// equivCase is one model of the nine-family zoo with an exploration depth
// sized so the heavy asynchronous families stay test-suite cheap.
type equivCase struct {
	name  string
	m     core.Model
	depth int
}

func equivZoo() []equivCase {
	sp := proto.SyncProtocol(protocols.FloodSet{Rounds: 2})
	smp := proto.SMProtocol(protocols.SMVote{Phases: 2})
	mpp := proto.MPProtocol(protocols.MPFlood{Phases: 2})
	return []equivCase{
		{"mobile", mobile.New(sp, 3), 3},
		{"mobile-full", mobile.NewFull(sp, 3), 2},
		{"syncmp-st", syncmp.NewSt(sp, 3, 1), 2},
		{"syncmp-multi", syncmp.NewStMulti(sp, 3, 1, 1), 2},
		{"shmem", shmem.New(smp, 2), 2},
		{"asyncmp", asyncmp.New(mpp, 2), 2},
		{"asyncmp-synchronic", asyncmp.NewSynchronic(mpp, 2), 2},
		{"iis", iis.New(smp, 2), 2},
		{"snapshot", snapshot.New(smp, 2), 2},
	}
}

// newCache builds a fresh cache of the named implementation over the raw
// (uncached) successor function of m.
func newCache(impl string, m core.Model) core.Interner {
	raw := core.CacheOf(m).Uncached()
	if impl == "legacy" {
		return core.NewLegacyCache(raw)
	}
	return core.NewSuccessorCache(raw)
}

// sameGraph asserts two dense graphs agree on every published field.
func sameGraph(t *testing.T, want, got *core.IDGraph) {
	t.Helper()
	if !reflect.DeepEqual(want.Keys, got.Keys) {
		t.Fatal("Keys differ")
	}
	if !reflect.DeepEqual(want.DepthOf, got.DepthOf) {
		t.Fatal("DepthOf differs")
	}
	if !reflect.DeepEqual(want.Inits, got.Inits) {
		t.Fatal("Inits differ")
	}
	if !reflect.DeepEqual(want.EdgeStart, got.EdgeStart) {
		t.Fatal("EdgeStart differs")
	}
	if !reflect.DeepEqual(want.EdgeAction, got.EdgeAction) {
		t.Fatal("EdgeAction differs")
	}
	if !reflect.DeepEqual(want.EdgeTo, got.EdgeTo) {
		t.Fatal("EdgeTo differs")
	}
	for d := 0; d <= want.ReachedDepth(); d++ {
		if !reflect.DeepEqual(want.Layer(d), got.Layer(d)) {
			t.Fatalf("layer %d differs", d)
		}
	}
	for u := 0; u < want.Len(); u++ {
		if want.Keys[u] != got.States[u].Key() {
			t.Fatalf("node %d state key differs", u)
		}
	}
}

func workerCounts() []int {
	counts := []int{1, 4}
	if gm := runtime.GOMAXPROCS(0); gm != 1 && gm != 4 {
		counts = append(counts, gm)
	}
	return counts
}

// TestShardedLegacyGraphEquivalence: full explorations over the nine-model
// zoo are bit-identical across {sharded, legacy} × worker counts, with the
// legacy single-worker run as the reference.
func TestShardedLegacyGraphEquivalence(t *testing.T) {
	for _, tc := range equivZoo() {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := core.ExploreIDCtxWith(nil, newCache("legacy", tc.m), tc.m, tc.depth, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Len() == 0 {
				t.Fatal("empty reference graph")
			}
			for _, impl := range []string{"legacy", "sharded"} {
				for _, w := range workerCounts() {
					g, err := core.ExploreIDCtxWith(nil, newCache(impl, tc.m), tc.m, tc.depth, 0, w)
					if err != nil {
						t.Fatalf("%s/w=%d: %v", impl, w, err)
					}
					sameGraph(t, ref, g)
				}
			}
		})
	}
}

// TestShardedLegacyBudgetEquivalence: a node budget must cut both
// implementations at the identical point — same partial graph, same
// ErrNodeBudget verdict — because the budget check sits in the
// deterministic merge, not in the cache.
func TestShardedLegacyBudgetEquivalence(t *testing.T) {
	for _, tc := range equivZoo() {
		t.Run(tc.name, func(t *testing.T) {
			full, err := core.ExploreIDCtxWith(nil, newCache("legacy", tc.m), tc.m, tc.depth, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			budget := full.Len() / 2
			if budget == 0 {
				t.Skip("graph too small to cut")
			}
			ref, rerr := core.ExploreIDCtxWith(nil, newCache("legacy", tc.m), tc.m, tc.depth, budget, 1)
			if !errors.Is(rerr, core.ErrNodeBudget) {
				t.Fatalf("reference budget run: %v, want ErrNodeBudget", rerr)
			}
			for _, impl := range []string{"legacy", "sharded"} {
				for _, w := range workerCounts() {
					g, err := core.ExploreIDCtxWith(nil, newCache(impl, tc.m), tc.m, tc.depth, budget, w)
					if !errors.Is(err, core.ErrNodeBudget) {
						t.Fatalf("%s/w=%d: %v, want ErrNodeBudget", impl, w, err)
					}
					if g.Len() != budget {
						t.Fatalf("%s/w=%d: cut at %d nodes, want %d", impl, w, g.Len(), budget)
					}
					sameGraph(t, ref, g)
				}
			}
		})
	}
}

// TestShardedResumeEquivalence interrupts sharded-cache explorations at
// every layer boundary (explore.layer chaos cancel), persists the
// checkpoint through the binary container, resumes on the same cache, and
// asserts the finished graph is bit-identical to the legacy reference —
// the checkpoint/resume face of the equivalence property. The full zoo
// already pins graph equality; the resume machinery is model-independent,
// so one light and one heavy family keep this sub-test fast.
func TestShardedResumeEquivalence(t *testing.T) {
	zoo := equivZoo()
	for _, tc := range []equivCase{zoo[0], zoo[4]} {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := core.ExploreIDCtxWith(nil, newCache("legacy", tc.m), tc.m, tc.depth, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			for cut := 0; cut < tc.depth; cut++ {
				for _, w := range workerCounts() {
					c := newCache("sharded", tc.m)
					chaos.Arm(chaos.NewPlan().Set("explore.layer", chaos.Rule{Hit: uint64(cut + 1), Kind: chaos.KindCancel}))
					partial, perr := core.ExploreIDCtxWith(nil, c, tc.m, tc.depth, 0, w)
					chaos.Disarm()
					if !errors.Is(perr, resilient.ErrPartial) {
						t.Fatalf("cut=%d w=%d: %v, want ErrPartial family", cut, w, perr)
					}
					if partial.ReachedDepth() > cut {
						t.Fatalf("cut=%d: partial graph reached depth %d past the cut", cut, partial.ReachedDepth())
					}
					ck, ok := resilient.CheckpointFrom(perr)
					if !ok {
						t.Fatalf("cut=%d w=%d: no checkpoint attached", cut, w)
					}
					sections, serr := ck.Sections()
					if serr != nil {
						t.Fatal(serr)
					}
					ctx := resilient.Background()
					ctx.SetResume(sections)
					resumed, rerr := core.ExploreIDCtxWith(ctx, c, tc.m, tc.depth, 0, w)
					if rerr != nil {
						t.Fatalf("cut=%d w=%d: resume failed: %v", cut, w, rerr)
					}
					sameGraph(t, ref, resumed)
				}
			}
		})
	}
}
