package syncmp

import (
	"strings"

	"repro/internal/core"
	"repro/internal/proto"
)

// DropFunc decides whether the message from process `from` to process `to`
// is lost in the current round.
type DropFunc func(from, to int) bool

// round is one synchronous round from fixed local states. Every process's
// outgoing messages are fixed by the locals, so Send runs once per process
// when the round is built; a receiver's next local state then depends only
// on which senders' messages arrived, so Deliver and Decide run once per
// (receiver, arrived senders) and are served from the memo afterwards.
type round struct {
	p      proto.SyncProtocol
	locals []string
	sends  [][]string
	memo   [][]delivery // per receiver, one entry per distinct arrival set
	in     []string     // Deliver's inbox, reused across receivers
}

// delivery is one memoized receiver step: the next local state reached
// when exactly the senders in arrived were heard, and its decision.
type delivery struct {
	arrived uint64
	local   string
	dec     int
}

func newRound(p proto.SyncProtocol, locals []string) round {
	n := len(locals)
	r := round{
		p:      p,
		locals: locals,
		sends:  make([][]string, n),
		memo:   make([][]delivery, n),
		in:     make([]string, n),
	}
	// A single-omission layer reaches at most n+1 arrival sets per
	// receiver (everyone, or everyone but one sender); size the memo for
	// that so it rarely grows.
	slab := make([]delivery, 0, n*(n+1))
	for to := range r.memo {
		r.memo[to] = slab[to*(n+1) : to*(n+1) : (to+1)*(n+1)]
	}
	for i, l := range locals {
		r.sends[i] = p.Send(l)
	}
	return r
}

// deliver returns receiver to's next local state and decision when the
// messages of exactly the senders in arrived reach it.
func (r *round) deliver(to int, arrived uint64) (string, int) {
	for _, d := range r.memo[to] {
		if d.arrived == arrived {
			return d.local, d.dec
		}
	}
	for i := range r.in {
		r.in[i] = ""
		if arrived&(1<<uint(i)) != 0 {
			r.in[i] = r.sends[i][to]
		}
	}
	local := r.p.Deliver(r.locals[to], r.in)
	dec, ok := r.p.Decide(local)
	if !ok {
		dec = core.Undecided
	}
	r.memo[to] = append(r.memo[to], delivery{arrived: arrived, local: local, dec: dec})
	return local, dec
}

// Round executes one synchronous round of protocol p from the given local
// states: every process emits its messages, drop filters them, and every
// process consumes what arrived. It returns the next local states. It is
// the round engine applied to a single action.
func Round(p proto.SyncProtocol, locals []string, drop DropFunc) []string {
	r := newRound(p, locals)
	next := make([]string, len(locals))
	for to := range locals {
		arrived := uint64(0)
		for from := range locals {
			if from != to && (drop == nil || !drop(from, to)) {
				arrived |= 1 << uint(from)
			}
		}
		next[to], _ = r.deliver(to, arrived)
	}
	return next
}

// omission is one sender's lost messages in a round: the messages from
// process from to the processes in the bitmask to are lost.
type omission struct {
	from int
	to   uint64
}

// RoundEngine computes the successors of one global state x, one per
// environment action, for the synchronous layerings (S1, S^t, the
// multi-failure layers and M^mf). The actions of a layer differ only in
// which messages are lost, so the engine runs one round from x's locals:
// Send once per process, Deliver and Decide once per (receiver, arrived
// senders). Successors are built with their decisions already known and
// share x's immutable inputs. A RoundEngine serves one enumeration and is
// not safe for concurrent use.
type RoundEngine struct {
	round
	x *State
	// open is, per receiver, the senders whose messages arrive unless the
	// action omits them: everyone else, minus the silenced senders, and
	// nobody for a deaf receiver.
	open []uint64
	// Successor storage, carved from slabs sized by the expected number of
	// actions so one enumeration allocates O(1) blocks rather than O(1) per
	// successor.
	hint    int
	built   int
	states  []State
	locals  []string
	decided []int
	keys    strings.Builder
}

// NewRoundEngine prepares the successors of x under protocol p. With
// silenceFailed, messages from processes recorded as failed in x are lost
// (the Section-6 silencing rule); with generalOmission, processes recorded
// as failed also lose their incoming messages. hint is the number of
// successors the caller expects to build (a sizing hint only).
func NewRoundEngine(p proto.SyncProtocol, x *State, silenceFailed, generalOmission bool, hint int) *RoundEngine {
	n := x.n
	e := &RoundEngine{round: newRound(p, x.locals), x: x, open: make([]uint64, n), hint: max(hint, 1)}
	everyone := uint64(1)<<uint(n) - 1
	for to := range e.open {
		switch {
		case generalOmission && x.failed&(1<<uint(to)) != 0:
			e.open[to] = 0
		case silenceFailed:
			e.open[to] = everyone &^ (1 << uint(to)) &^ x.failed
		default:
			e.open[to] = everyone &^ (1 << uint(to))
		}
	}
	return e
}

// Omit returns the successor under the action (j, omitTo): messages from
// j to the processes in the bitmask omitTo are lost this round. If record
// is true and omitTo is non-empty, j is recorded as failed in the
// successor's environment.
func (e *RoundEngine) Omit(j int, omitTo uint64, record bool) *State {
	failed := e.x.failed
	if record && omitTo != 0 {
		failed |= 1 << uint(j)
	}
	one := [1]omission{{from: j, to: omitTo}}
	return e.newSuccessor(one[:], failed)
}

// newSuccessor builds the successor in which the listed omissions happen
// and the environment records failed.
func (e *RoundEngine) newSuccessor(oms []omission, failed uint64) *State {
	n := e.x.n
	if len(e.states) == cap(e.states) {
		e.states = make([]State, 0, e.hint)
		e.locals = make([]string, 0, e.hint*n)
		e.decided = make([]int, 0, e.hint*n)
	}
	lo := len(e.locals)
	for to := 0; to < n; to++ {
		arrived := e.open[to]
		for _, om := range oms {
			if om.to&(1<<uint(to)) != 0 {
				arrived &^= 1 << uint(om.from)
			}
		}
		local, dec := e.deliver(to, arrived)
		e.locals = append(e.locals, local)
		e.decided = append(e.decided, dec)
	}
	e.states = e.states[:len(e.states)+1]
	s := &e.states[len(e.states)-1]
	*s = State{
		n:       n,
		round:   e.x.round + 1,
		locals:  e.locals[lo:len(e.locals):len(e.locals)],
		failed:  failed,
		trackEn: e.x.trackEn,
		decided: e.decided[lo:len(e.decided):len(e.decided)],
		inputs:  e.x.inputs,
	}
	s.key, s.envKey = encodeKey(&e.keys, e.hint-e.built, s.round, failed, s.trackEn, s.locals)
	e.built++
	return s
}

// OmitMask returns the paper's omission set [k] = {first k processes} as a
// bitmask over 0-based ids: processes 0..k-1.
func OmitMask(k int) uint64 {
	return (uint64(1) << uint(k)) - 1
}

// ApplyAction applies the environment action (j, G) to state x under
// protocol p: messages from j to the processes in omitTo are lost this
// round. If silenceFailed is true, all messages from processes already
// recorded as failed in x are also lost (the Section-6 silencing rule). If
// record is true and omitTo is non-empty, j is recorded as failed in the
// successor's environment.
//
// j is a 0-based process id; omitTo is a bitmask of 0-based ids.
func ApplyAction(p proto.SyncProtocol, x *State, j int, omitTo uint64, record, silenceFailed bool) *State {
	return ApplyActionMode(p, x, j, omitTo, record, silenceFailed, false)
}

// ApplyActionMode is ApplyAction with an explicit failure mode: when
// generalOmission is true, processes already recorded as failed also lose
// their incoming messages (general omission) instead of only their
// outgoing ones (sending omission, the paper's model).
func ApplyActionMode(p proto.SyncProtocol, x *State, j int, omitTo uint64, record, silenceFailed, generalOmission bool) *State {
	return NewRoundEngine(p, x, silenceFailed, generalOmission, 1).Omit(j, omitTo, record)
}
