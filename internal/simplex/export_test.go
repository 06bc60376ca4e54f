package simplex

import "fmt"

// This file keeps the Complex-based k-thick checks, which build the closure
// C_Δ'(I) of every similarity-connected input subset, as the differential
// oracle of the bitset kernel behind KThickConnected, and exports the
// oracle and the kernel's per-choice check to the external simplex_test
// package (which can import the task zoo without an import cycle).

// RefKThickConnected is the oracle subproblem search.
func RefKThickConnected(p *Problem, k, budget int) (DeltaFunc, bool, error) {
	return p.refKThickConnected(k, budget)
}

// ThickUnder reports whether every similarity-connected subset of p's
// inputs is k-thick connected under the per-input choice masks, once by
// the bitset kernel and once by the oracle complex.
func ThickUnder(p *Problem, k int, choice []uint64) (kernel, oracle bool, err error) {
	x, err := p.newThickIndex()
	if err != nil {
		return false, false, err
	}
	oracle, err = p.ThickConnectedWith(deltaFromChoice(p.Inputs, x.options, choice), k)
	return x.checker(k)(choice), oracle, err
}

// ThickWidth returns the number of distinct n-size simplexes the bitset
// kernel indexes for p, so tests can confirm they reach the multi-word
// path.
func ThickWidth(p *Problem) (int, error) {
	x, err := p.newThickIndex()
	if err != nil {
		return 0, err
	}
	return x.tops, nil
}

// ThickConnectedWith reports whether, under the given Δ' (a subproblem's
// map), C_Δ'(I) is k-thick-connected for every similarity-connected subset
// I of the inputs.
func (p *Problem) ThickConnectedWith(delta DeltaFunc, k int) (bool, error) {
	subsets, err := p.ConnectedInputSubsets()
	if err != nil {
		return false, err
	}
	return p.thickConnectedOn(delta, k, subsets), nil
}

// thickConnectedOn checks k-thick-connectivity of C_Δ'(I) for each of the
// given input-index subsets.
func (p *Problem) thickConnectedOn(delta DeltaFunc, k int, subsets [][]int) bool {
	sub := &Problem{Name: p.Name, N: p.N, Inputs: p.Inputs, Delta: delta}
	for _, idx := range subsets {
		inputs := make([]Simplex, len(idx))
		for i, j := range idx {
			inputs[i] = p.Inputs[j]
		}
		if !sub.OutputComplex(inputs).ThickConnected(p.N, k) {
			return false
		}
	}
	return true
}

// refKThickConnected is the subproblem search as it stood before the
// bitset kernel: the same mixed-radix order and budget, with each subset
// checked on a fresh Complex and memoized per subset on its inputs'
// restricted masks.
func (p *Problem) refKThickConnected(k, budget int) (DeltaFunc, bool, error) {
	// Precompute Δ(s) per input.
	options := make([][]Simplex, len(p.Inputs))
	for i, s := range p.Inputs {
		options[i] = p.Delta(s)
		if len(options[i]) == 0 {
			return nil, false, fmt.Errorf("simplex: input %s has empty Δ", s)
		}
	}
	subsets, err := p.ConnectedInputSubsets()
	if err != nil {
		return nil, false, err
	}
	// A subset's verdict depends only on the choice masks of the inputs it
	// contains, and the mixed-radix counter below revisits each restricted
	// combination once per setting of the irrelevant inputs — so memoize
	// per-subset verdicts keyed on the restricted masks.
	memos := make([]map[string]bool, len(subsets))
	for i := range memos {
		memos[i] = make(map[string]bool)
	}
	connectedUnder := func(choice []uint64) bool {
		for si, idx := range subsets {
			kb := make([]byte, 0, 8*len(idx))
			for _, j := range idx {
				m := choice[j]
				kb = append(kb, byte(m), byte(m>>8), byte(m>>16), byte(m>>24),
					byte(m>>32), byte(m>>40), byte(m>>48), byte(m>>56))
			}
			mk := string(kb)
			v, seen := memos[si][mk]
			if !seen {
				c := NewComplex()
				for _, j := range idx {
					for b, o := range options[j] {
						if choice[j]&(1<<uint(b)) != 0 {
							c.Add(o)
						}
					}
				}
				v = c.ThickConnected(p.N, k)
				memos[si][mk] = v
			}
			if !v {
				return false
			}
		}
		return true
	}
	// Try the canonical subproblem Δ' = Δ first: when it works (the common
	// case for solvable tasks) no search is needed.
	full := make([]uint64, len(options))
	for i := range full {
		full[i] = 1<<uint(len(options[i])) - 1
	}
	if connectedUnder(full) {
		return deltaFromChoice(p.Inputs, options, full), true, nil
	}
	// Enumerate the remaining nonempty subsets of each Δ(s) via per-input
	// masks (a mixed-radix counter).
	choice := make([]uint64, len(options))
	for i := range choice {
		choice[i] = 1
	}
	tried := 0
	for {
		isFull := true
		for i := range choice {
			if choice[i] != full[i] {
				isFull = false
				break
			}
		}
		if !isFull {
			tried++
			if budget > 0 && tried > budget {
				return nil, false, fmt.Errorf("after %d subproblems: %w", tried, ErrBudget)
			}
			if connectedUnder(choice) {
				return deltaFromChoice(p.Inputs, options, choice), true, nil
			}
		}
		// Advance.
		i := 0
		for ; i < len(choice); i++ {
			choice[i]++
			if choice[i] < 1<<uint(len(options[i])) {
				break
			}
			choice[i] = 1
		}
		if i == len(choice) {
			return nil, false, nil
		}
	}
}
