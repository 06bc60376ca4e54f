package syncmp

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/proto"
)

// RefRound is the per-action round that the round engine replaced, kept
// as the differential oracle: every call re-runs Send for every process
// and Deliver for every receiver.
func RefRound(p proto.SyncProtocol, locals []string, drop DropFunc) []string {
	n := len(locals)
	sends := make([][]string, n)
	for i, l := range locals {
		sends[i] = p.Send(l)
	}
	next := make([]string, n)
	in := make([]string, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			switch {
			case i == j:
				in[i] = ""
			case drop != nil && drop(i, j):
				in[i] = ""
			default:
				in[i] = sends[i][j]
			}
		}
		next[j] = p.Deliver(locals[j], in)
	}
	return next
}

// RefApply applies one action to x through RefRound, the way each action
// was applied before the round engine: lost[j] is the set of processes
// that lose j's message, failed is the successor's failed set, and
// silenceFailed/generalOmission are as in ApplyActionMode. The successor's
// key and decisions are computed as NewState computed them then, with
// proto.Join and one Decide per process.
func RefApply(p proto.SyncProtocol, x *State, lost map[int]uint64, failed uint64, silenceFailed, generalOmission bool) *State {
	drop := func(from, to int) bool {
		if silenceFailed && x.failed&(1<<uint(from)) != 0 {
			return true
		}
		if generalOmission && x.failed&(1<<uint(to)) != 0 {
			return true
		}
		return lost[from]&(1<<uint(to)) != 0
	}
	return newRefState(p, x.round+1, RefRound(p, x.locals, drop), failed, x.trackEn, x.inputs)
}

func newRefState(p proto.Decider, round int, locals []string, failed uint64, trackEnv bool, inputs []int) *State {
	s := &State{
		n:       len(locals),
		round:   round,
		locals:  locals,
		failed:  failed,
		trackEn: trackEnv,
		decided: make([]int, len(locals)),
		inputs:  append([]int(nil), inputs...),
	}
	for i, l := range locals {
		s.decided[i] = core.Undecided
		if v, ok := p.Decide(l); ok {
			s.decided[i] = v
		}
	}
	if trackEnv {
		s.envKey = proto.Join("r"+strconv.Itoa(round), "f"+strconv.FormatUint(failed, 16))
	} else {
		s.envKey = proto.Join("r" + strconv.Itoa(round))
	}
	s.key = proto.Join(append([]string{s.envKey}, locals...)...)
	return s
}
