package simplex_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/simplex"
	"repro/internal/tasks"
)

// gridTask gives each binary input a 3×3×3 grid of outputs: process i
// decides one of three values in a band its input selects. Inputs that
// differ in one process share no output but have outputs meeting in n-1
// vertices, so the task is 1-thick connected, and its 216 distinct outputs
// need four bitset words.
func gridTask() *simplex.Problem {
	const n = 3
	var inputs []simplex.Simplex
	for a := 0; a < 1<<n; a++ {
		inputs = append(inputs, simplex.FromValues([]int{a & 1, a >> 1 & 1, a >> 2 & 1}))
	}
	return &simplex.Problem{
		Name:   "grid(n=3)",
		N:      n,
		Inputs: inputs,
		Delta: func(in simplex.Simplex) []simplex.Simplex {
			base := make([]int, n)
			for _, v := range in.Vertices() {
				base[v.ID] = 3 * v.Value
			}
			var out []simplex.Simplex
			for m := 0; m < 27; m++ {
				out = append(out, simplex.FromValues([]int{base[0] + m%3, base[1] + m/3%3, base[2] + m/9}))
			}
			return out
		},
	}
}

type thickCase struct {
	p      *simplex.Problem
	budget int
}

func thickCases() []thickCase {
	var cases []thickCase
	for _, n := range []int{2, 3} {
		for _, task := range tasks.Zoo(n) {
			budget := task.SubproblemBudget
			if budget == 0 {
				budget = 1_000_000
			}
			cases = append(cases, thickCase{task.Problem, budget})
		}
	}
	return append(cases, thickCase{gridTask(), 50})
}

// witnessKeys renders a witness Δ' as each input's output keys, in order.
func witnessKeys(p *simplex.Problem, delta simplex.DeltaFunc) [][]string {
	if delta == nil {
		return nil
	}
	out := make([][]string, len(p.Inputs))
	for i, s := range p.Inputs {
		for _, o := range delta(s) {
			out[i] = append(out[i], o.Key())
		}
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestKThickConnectedMatchesOracle pins the bitset kernel to the
// Complex-based search: same verdict, same error and the same witness Δ'
// for every zoo task at every k in 1..n.
func TestKThickConnectedMatchesOracle(t *testing.T) {
	for _, tc := range thickCases() {
		p := tc.p
		for k := 1; k <= p.N; k++ {
			gotDelta, gotOK, gotErr := p.KThickConnected(k, tc.budget)
			wantDelta, wantOK, wantErr := simplex.RefKThickConnected(p, k, tc.budget)
			if gotOK != wantOK || errText(gotErr) != errText(wantErr) {
				t.Errorf("%s k=%d: got (%v, %v), oracle (%v, %v)", p.Name, k, gotOK, gotErr, wantOK, wantErr)
				continue
			}
			if got, want := witnessKeys(p, gotDelta), witnessKeys(p, wantDelta); !reflect.DeepEqual(got, want) {
				t.Errorf("%s k=%d: witness %v, oracle %v", p.Name, k, got, want)
			}
		}
	}
}

// TestKThickMultiWord: the grid task, which the oracle tests above cover,
// spans several bitset words. Renaming for four processes has 840 outputs
// per input, of which only the 64 a uint64 choice mask can select take
// part; Δ' = Δ is then those 64 (its oracle run, over 37293 input subsets,
// is too slow for the suite).
func TestKThickMultiWord(t *testing.T) {
	if width, err := simplex.ThickWidth(gridTask()); err != nil || width <= 64 {
		t.Errorf("grid task indexes %d outputs (%v), want more than one word", width, err)
	}
	p := tasks.Renaming(4).Problem
	delta, ok, err := p.KThickConnected(1, 1)
	if err != nil || !ok {
		t.Fatalf("renaming(4) = (%v, %v), want 1-thick connected", ok, err)
	}
	for _, s := range p.Inputs {
		if got, want := delta(s), p.Delta(s)[:64]; !reflect.DeepEqual(got, want) {
			t.Fatalf("input %s: witness has %d outputs, want the first 64 of Δ", s, len(got))
		}
	}
}

// TestThickUnderRandomChoices: for random per-input choice masks, the
// bitset check and the oracle complex agree on k-thick connectivity of
// every similarity-connected input subset.
func TestThickUnderRandomChoices(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range thickCases() {
		p := tc.p
		widths := make([]int, len(p.Inputs))
		for i, s := range p.Inputs {
			widths[i] = min(len(p.Delta(s)), 63)
		}
		for trial := 0; trial < 20; trial++ {
			choice := make([]uint64, len(p.Inputs))
			for i, w := range widths {
				for choice[i] == 0 {
					choice[i] = rng.Uint64() & (1<<uint(w) - 1)
				}
			}
			k := 1 + rng.Intn(p.N)
			kernel, oracle, err := simplex.ThickUnder(p, k, choice)
			if err != nil {
				t.Fatal(err)
			}
			if kernel != oracle {
				t.Errorf("%s k=%d choice %s: kernel %v, oracle %v", p.Name, k, fmt.Sprint(choice), kernel, oracle)
			}
		}
	}
}
