package valence_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/asyncmp"
	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/shmem"
	"repro/internal/syncmp"
	"repro/internal/valence"
)

// TestCertifyGraphMatchesRecursive pins the graph-backed certifier to the
// recursive one bit-for-bit — kind, detail, witness execution (init, every
// action, every state), and the Explored visit count — across the
// EXPERIMENTS.md refutation rows: E2 (FloodSet under the mobile-failures
// adversary), E3 (shared memory, undecided at bound), E5 (FloodSet round
// lower bound), plus flawed protocols covering the validity and write-once
// witness kinds, and clean runs where both certifiers return OK.
func TestCertifyGraphMatchesRecursive(t *testing.T) {
	cases := []struct {
		name  string
		m     core.Model
		bound int
	}{
		// E2 rows: mobile failures defeat FloodSet.
		{"e2-mobile-n3-b2", mobile.New(protocols.FloodSet{Rounds: 2}, 3), 2},
		{"e2-mobile-n3-b3", mobile.New(protocols.FloodSet{Rounds: 3}, 3), 3},
		{"e2-mobile-n4-b2", mobile.New(protocols.FloodSet{Rounds: 2}, 4), 2},
		// E3 rows: one-phase shared-memory protocols stay undecided.
		{"e3-shmem-n3-p1", shmem.New(protocols.SMVote{Phases: 1}, 3), 1},
		{"e3-shmem-n3-p2", shmem.New(protocols.SMVote{Phases: 1}, 3), 2},
		// E5 rows: FloodSet with too few rounds for t failures.
		{"e5-syncst-n3-t1-fast", syncmp.NewSt(protocols.FloodSet{Rounds: 1}, 3, 1), 1},
		{"e5-syncst-n4-t1-fast", syncmp.NewSt(protocols.FloodSet{Rounds: 1}, 4, 1), 1},
		{"e5-syncst-n4-t2-fast", syncmp.NewSt(protocols.FloodSet{Rounds: 2}, 4, 2), 2},
		// Validity and write-once violations.
		{"flawed-constant", syncmp.NewSt(protocols.ConstantDecider{Value: 1}, 3, 1), 1},
		{"flawed-flicker", syncmp.NewSt(protocols.FlickerDecider{}, 3, 1), 2},
		// Clean certifications: both engines must agree on OK and visits.
		{"ok-syncst-n3-t1", syncmp.NewSt(protocols.FloodSet{Rounds: 2}, 3, 1), 2},
		{"ok-syncst-n4-t2", syncmp.NewSt(protocols.FloodSet{Rounds: 3}, 4, 2), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := valence.Certify(tc.m, tc.bound, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := valence.CertifyFastCtx(nil, tc.m, tc.bound, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got.Kind != want.Kind {
				t.Fatalf("kind %v != %v", got.Kind, want.Kind)
			}
			if got.Detail != want.Detail {
				t.Fatalf("detail %q != %q", got.Detail, want.Detail)
			}
			if got.Explored != want.Explored {
				t.Errorf("explored %d != %d", got.Explored, want.Explored)
			}
			if want.Kind == valence.OK {
				return
			}
			if got.Exec.Init.Key() != want.Exec.Init.Key() {
				t.Fatalf("witness init differs:\n  graph     %s\n  recursive %s",
					got.Exec.Init.Key(), want.Exec.Init.Key())
			}
			if len(got.Exec.Steps) != len(want.Exec.Steps) {
				t.Fatalf("witness length %d != %d", len(got.Exec.Steps), len(want.Exec.Steps))
			}
			for i := range got.Exec.Steps {
				if got.Exec.Steps[i].Action != want.Exec.Steps[i].Action {
					t.Errorf("step %d action %q != %q", i, got.Exec.Steps[i].Action, want.Exec.Steps[i].Action)
				}
				if got.Exec.Steps[i].State.Key() != want.Exec.Steps[i].State.Key() {
					t.Errorf("step %d state differs", i)
				}
			}
		})
	}
}

// TestCertifyGraphBudget checks the visit budget surfaces the same ErrBudget
// as the recursive certifier.
func TestCertifyGraphBudget(t *testing.T) {
	m := syncmp.NewSt(protocols.FloodSet{Rounds: 2}, 3, 1)
	_, err := valence.CertifyFastCtx(nil, m, 2, 5)
	if err == nil {
		t.Fatal("budget of 5 visits did not error")
	}
	if got, want := err.Error(), fmt.Sprintf("after %d visits: %v", 6, valence.ErrBudget); got != want {
		t.Errorf("error %q, want %q", got, want)
	}
}

// TestCertifyGraphNotGraded checks that a non-graded graph is refused (and
// that CertifyFastCtx silently falls back to the recursive path for one).
func TestCertifyGraphNotGraded(t *testing.T) {
	// asyncmp at n=2 produces same-depth shortcut edges (see field tests).
	m := asyncmp.New(protocols.MPFlood{Phases: 2}, 2)
	g, err := core.ExploreIDCtx(nil, m, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Graded() {
		t.Skip("model graph unexpectedly graded")
	}
	if _, err := valence.CertifyGraphCtx(nil, g, 0); !errors.Is(err, valence.ErrNotGraded) {
		t.Fatalf("CertifyGraphCtx err = %v, want ErrNotGraded", err)
	}
	want, err := valence.Certify(m, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := valence.CertifyFastCtx(nil, m, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != want.Kind || got.Detail != want.Detail {
		t.Fatalf("fallback verdict (%v, %q) != (%v, %q)", got.Kind, got.Detail, want.Kind, want.Detail)
	}
}
