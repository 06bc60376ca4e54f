package simplex

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// miniConsensus is binary consensus for n processes, in-package (the tasks
// package depends on simplex, so the richer zoo lives there).
func miniConsensus(n int) *Problem {
	var inputs []Simplex
	for a := 0; a < 1<<uint(n); a++ {
		vals := make([]int, n)
		for i := 0; i < n; i++ {
			vals[i] = (a >> uint(i)) & 1
		}
		inputs = append(inputs, FromValues(vals))
	}
	constant := func(v int) Simplex {
		vals := make([]int, n)
		for i := range vals {
			vals[i] = v
		}
		return FromValues(vals)
	}
	return &Problem{
		Name:   "consensus",
		N:      n,
		Inputs: inputs,
		Delta: func(in Simplex) []Simplex {
			seen := map[int]bool{}
			var out []Simplex
			for _, v := range in.Vertices() {
				if !seen[v.Value] {
					seen[v.Value] = true
					out = append(out, constant(v.Value))
				}
			}
			return out
		},
	}
}

func TestProblemOutputComplex(t *testing.T) {
	p := miniConsensus(2)
	c := p.OutputComplex(p.Inputs)
	if got := len(c.Simplexes(2)); got != 2 {
		t.Errorf("output complex has %d top simplexes, want 2 (the constants)", got)
	}
}

func TestThickConnectedWith(t *testing.T) {
	p := miniConsensus(2)
	ok, err := p.ThickConnectedWith(p.Delta, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("consensus Δ reported 1-thick connected")
	}
	// A constant Δ' is connected.
	constDelta := func(Simplex) []Simplex { return []Simplex{FromValues([]int{0, 0})} }
	ok, err = p.ThickConnectedWith(constDelta, 1)
	if err != nil || !ok {
		t.Errorf("constant Δ' = (%v,%v), want connected", ok, err)
	}
}

func TestKThickConnectedVerdictAndBudget(t *testing.T) {
	p := miniConsensus(2)
	// Exhaustive: consensus is not 1-thick connected under any Δ'.
	if _, ok, err := p.KThickConnected(1, 0); err != nil || ok {
		t.Errorf("consensus KThickConnected = (%v,%v)", ok, err)
	}
	// A tight budget trips ErrBudget (the full Δ fails, the enumeration
	// then exceeds one candidate).
	if _, _, err := p.KThickConnected(1, 1); !errors.Is(err, ErrBudget) {
		t.Errorf("budget err = %v", err)
	}
	// Empty Δ is rejected.
	bad := &Problem{N: 2, Inputs: p.Inputs, Delta: func(Simplex) []Simplex { return nil }}
	if _, _, err := bad.KThickConnected(1, 0); err == nil {
		t.Error("empty Δ accepted")
	}
}

func TestMinThicknessInPackage(t *testing.T) {
	p := miniConsensus(2)
	k, err := p.MinThickness(0)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Errorf("MinThickness = %d, want n = 2", k)
	}
}

func TestConnectedInputSubsetsCap(t *testing.T) {
	p := miniConsensus(5) // 32 inputs > 16
	if _, err := p.ConnectedInputSubsets(); !errors.Is(err, ErrTooManyInputs) {
		t.Errorf("err = %v, want ErrTooManyInputs", err)
	}
	if _, err := p.ThickConnectedWith(p.Delta, 1); err == nil {
		t.Error("ThickConnectedWith should propagate the cap error")
	}
}

// TestConnectedInputSubsetsSquare: the four binary inputs of two processes
// form a similarity 4-cycle 00-10-11-01, whose connected subsets are all
// of them but the two diagonals, listed in mask order.
func TestConnectedInputSubsetsSquare(t *testing.T) {
	got, err := miniConsensus(2).ConnectedInputSubsets()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0}, {1}, {0, 1}, {2}, {0, 2}, {0, 1, 2}, {3}, {1, 3}, {0, 1, 3}, {2, 3}, {0, 2, 3}, {1, 2, 3}, {0, 1, 2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ConnectedInputSubsets = %v, want %v", got, want)
	}
}

func TestSimplexString(t *testing.T) {
	s := FromValues([]int{7, 8})
	if got := s.String(); !strings.Contains(got, "0=7") || !strings.Contains(got, "1=8") {
		t.Errorf("String() = %q", got)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on duplicate ids")
		}
	}()
	MustNew(Vertex{0, 1}, Vertex{0, 2})
}
