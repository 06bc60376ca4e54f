package main

import (
	"fmt"

	layers "repro"
	"repro/internal/report"
)

// inputState is implemented by states that remember their run's inputs.
type inputState interface {
	InputOf(i int) int
}

// checkWitness checks a certification outcome without trusting the engine
// that produced it. An OK verdict carries no execution. A refutation is
// replayed through its model by report.Replay, action label by action
// label, must fit within bound layers, and its last step must exhibit the
// violation its kind names, under the certifier's definitions: agreement
// and validity among the processes not failed at that state, decision by
// the bound, and write-once decisions.
func checkWitness(m layers.Model, w *layers.Witness, bound int) error {
	if w.Kind == layers.OK {
		if w.Exec != nil {
			return fmt.Errorf("OK verdict carries an execution")
		}
		return nil
	}
	if w.Exec == nil {
		return fmt.Errorf("%s verdict without a witness execution", w.Kind)
	}
	exec, err := report.Replay(m, report.NewExecution(w.Exec, layers.State.Key))
	if err != nil {
		return fmt.Errorf("%s witness does not replay: %w", w.Kind, err)
	}
	if exec.Len() > bound {
		return fmt.Errorf("%s witness has %d layers, bound is %d", w.Kind, exec.Len(), bound)
	}
	last := exec.Last()
	switch w.Kind {
	case layers.AgreementViolation:
		seen := -1
		for i := 0; i < last.N(); i++ {
			v, ok := last.Decided(i)
			if !ok || last.FailedAt(i) {
				continue
			}
			if seen >= 0 && v != seen {
				return nil
			}
			seen = v
		}
		return fmt.Errorf("agreement witness ends where no two non-failed processes disagree")
	case layers.ValidityViolation:
		in, ok := last.(inputState)
		if !ok {
			return fmt.Errorf("validity witness on a state without inputs")
		}
		for i := 0; i < last.N(); i++ {
			v, ok := last.Decided(i)
			if !ok || last.FailedAt(i) {
				continue
			}
			valid := false
			for j := 0; j < last.N(); j++ {
				valid = valid || in.InputOf(j) == v
			}
			if !valid {
				return nil
			}
		}
		return fmt.Errorf("validity witness ends where every decision is an input")
	case layers.UndecidedAtBound:
		if exec.Len() != bound {
			return fmt.Errorf("undecided witness ends at layer %d, not at the bound %d", exec.Len(), bound)
		}
		for i := 0; i < last.N(); i++ {
			if _, ok := last.Decided(i); !ok && !last.FailedAt(i) {
				return nil
			}
		}
		return fmt.Errorf("undecided witness ends where every non-failed process decided")
	case layers.DecisionChanged:
		if exec.Len() == 0 {
			return fmt.Errorf("decision-changed witness has no transition")
		}
		prev := exec.Init
		if n := exec.Len(); n > 1 {
			prev = exec.Steps[n-2].State
		}
		for i := 0; i < last.N(); i++ {
			v0, ok0 := prev.Decided(i)
			v1, ok1 := last.Decided(i)
			if ok0 && (!ok1 || v0 != v1) {
				return nil
			}
		}
		return fmt.Errorf("decision-changed witness ends where no decision changed")
	}
	return fmt.Errorf("unknown witness kind %v", w.Kind)
}

// sameWitness reports whether two outcomes are the same answer: kind,
// visit count and, for refutations, the same run.
func sameWitness(a, b *layers.Witness) bool {
	if a.Kind != b.Kind || a.Explored != b.Explored || (a.Exec == nil) != (b.Exec == nil) {
		return false
	}
	if a.Exec == nil {
		return true
	}
	if a.Exec.Len() != b.Exec.Len() || a.Exec.Init.Key() != b.Exec.Init.Key() {
		return false
	}
	for i, s := range a.Exec.Steps {
		t := b.Exec.Steps[i]
		if s.Action != t.Action || s.State.Key() != t.State.Key() {
			return false
		}
	}
	return true
}
