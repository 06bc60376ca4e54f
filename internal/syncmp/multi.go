package syncmp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/proto"
)

// MultiModel generalizes the S^t layering to allow up to MaxPerRound new
// omission failures in a single round, as in the closing discussion of
// Section 6 (the Dwork–Moses "wasted faults" analysis): by failing k+w
// processes within the first k rounds the environment wastes w faults, and
// bivalence must end w rounds earlier. The failure budget t still caps the
// run's total failures.
type MultiModel struct {
	*core.SuccessorCache
	p           proto.SyncProtocol
	n           int
	t           int
	maxPerRound int
	name        string
	actions     []multiAction // every combined omission within min(maxPerRound, t), in enumeration order
	inits       core.InitMemo
}

// multiAction is one combined omission: its label, the omissions, and the
// processes that fail in it.
type multiAction struct {
	label string
	oms   []omission
	fails uint64
}

var _ core.Model = (*MultiModel)(nil)

// NewStMulti returns the t-resilient synchronous model whose layers allow
// up to maxPerRound simultaneous new failures.
func NewStMulti(p proto.SyncProtocol, n, t, maxPerRound int) *MultiModel {
	m := &MultiModel{
		p:           p,
		n:           n,
		t:           t,
		maxPerRound: maxPerRound,
		name:        fmt.Sprintf("syncmp/StMulti(n=%d,t=%d,c=%d,%s)", n, t, maxPerRound, p.Name()),
	}
	m.actions = multiActions(n, min(maxPerRound, t))
	m.SuccessorCache = core.NewSuccessorCache(core.SuccessorFunc(m.successors))
	return m
}

// Name implements core.Model.
func (m *MultiModel) Name() string { return m.name }

// N returns the number of processes.
func (m *MultiModel) N() int { return m.n }

// T returns the failure budget.
func (m *MultiModel) T() int { return m.t }

// Inits implements core.Model.
func (m *MultiModel) Inits() []core.State {
	return m.inits.Get(func() []core.State {
		out := make([]core.State, 0, 1<<uint(m.n))
		for a := 0; a < 1<<uint(m.n); a++ {
			out = append(out, m.Initial(binaryInputs(m.n, a)))
		}
		return out
	})
}

// Initial builds the initial state for an explicit input assignment.
func (m *MultiModel) Initial(inputs []int) *State {
	locals := make([]string, m.n)
	for i := range locals {
		locals[i] = m.p.Init(m.n, i, inputs[i])
	}
	return NewState(m.p, 0, locals, 0, true, inputs)
}

// Omission is one process's new failure in a round: j omits to the prefix
// set [K] (1 <= K <= n) and is silenced afterwards.
type Omission struct {
	J int
	K int
}

// ApplyMulti applies one round in which every listed process fails
// simultaneously (and previously-failed processes stay silenced). Each
// process is listed at most once.
func (m *MultiModel) ApplyMulti(x *State, oms []Omission) *State {
	failed := x.failed
	list := make([]omission, len(oms))
	for i, om := range oms {
		failed |= 1 << uint(om.J)
		list[i] = omission{from: om.J, to: OmitMask(om.K)}
	}
	return NewRoundEngine(m.p, x, true, false, 1).newSuccessor(list, failed)
}

// successors enumerates the failure-free round plus every combination of
// up to maxPerRound new failures within the remaining budget; the embedded
// cache serves Successors. Combinations are listed in depth-first order
// over (process, prefix) pairs, each label joining its omissions' "(j,[k])"
// labels with "+".
func (m *MultiModel) successors(x core.State) []core.Succ {
	s, ok := x.(*State)
	if !ok {
		return nil
	}
	limit := min(m.maxPerRound, m.t-s.FailedCount())
	actions := 1
	for _, a := range m.actions {
		if a.enabled(s.failed, limit) {
			actions++
		}
	}
	e := NewRoundEngine(m.p, s, true, false, actions)
	out := make([]core.Succ, 0, actions)
	out = append(out, core.Succ{Action: "noop", State: e.newSuccessor(nil, s.failed)})
	for _, a := range m.actions {
		if a.enabled(s.failed, limit) {
			out = append(out, core.Succ{Action: a.label, State: e.newSuccessor(a.oms, s.failed|a.fails)})
		}
	}
	return out
}

// enabled reports whether the action is available at a state with the
// given failed set: none of its processes has failed yet and it fails at
// most limit of them.
func (a *multiAction) enabled(failed uint64, limit int) bool {
	return a.fails&failed == 0 && len(a.oms) <= limit
}

// multiActions lists every combination of 1..limit omissions (j,[k]) by
// distinct processes, in depth-first order: a combination precedes its
// extensions, and extensions add processes in increasing order. Restricting
// the list to the processes alive at a state and to that state's limit
// yields exactly the depth-first enumeration over those processes.
func multiActions(n, limit int) []multiAction {
	labels := PrefixLabels(n)
	var out []multiAction
	var build func(start int, prefix multiAction)
	build = func(start int, prefix multiAction) {
		if len(prefix.oms) >= limit {
			return
		}
		for j := start; j < n; j++ {
			for k := 1; k <= n; k++ {
				a := multiAction{
					label: labels[j][k],
					oms:   append(prefix.oms[:len(prefix.oms):len(prefix.oms)], omission{from: j, to: OmitMask(k)}),
					fails: prefix.fails | 1<<uint(j),
				}
				if prefix.label != "" {
					a.label = prefix.label + "+" + a.label
				}
				out = append(out, a)
				build(j+1, a)
			}
		}
	}
	build(0, multiAction{})
	return out
}
