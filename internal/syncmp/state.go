package syncmp

import (
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/proto"
)

// State is a global state of a round-based synchronous message-passing
// system. It is immutable after construction: all derived fields (key,
// decisions) are precomputed.
type State struct {
	n       int
	round   int
	locals  []string
	failed  uint64 // bitmask of processes recorded as failed by the environment
	trackEn bool   // whether the failed set is part of the environment state
	decided []int  // per-process decision (core.Undecided if none)
	inputs  []int  // initial inputs of the run (reporting metadata; not in Key)
	key     string
	envKey  string
}

var (
	_ core.State = (*State)(nil)
	_ core.Input = (*State)(nil)
)

// NewState assembles an immutable state. When trackEnv is true (the
// t-resilient model of Section 6) the failed bitmask is part of the
// environment state; when false (the mobile model M^mf) the environment
// consists of the round number only and failed must be 0.
func NewState(p proto.Decider, round int, locals []string, failed uint64, trackEnv bool, inputs []int) *State {
	n := len(locals)
	s := &State{
		n:       n,
		round:   round,
		locals:  append([]string(nil), locals...),
		failed:  failed,
		trackEn: trackEnv,
		decided: make([]int, n),
		inputs:  append([]int(nil), inputs...),
	}
	for i, l := range locals {
		if v, ok := p.Decide(l); ok {
			s.decided[i] = v
		} else {
			s.decided[i] = core.Undecided
		}
	}
	s.key, s.envKey = encodeKey(new(strings.Builder), 1, round, failed, trackEnv, s.locals)
	return s
}

// encodeKey returns a state's key, proto.Join(envKey, locals...), and its
// environment key — proto.Join("r<round>", "f<failed in hex>") when the
// failed set is tracked, proto.Join("r<round>") otherwise — as a
// substring of the key. The key is written into b, whose written bytes
// never change, and is returned as a substring of b's contents: when b
// lacks room it restarts with room for `expect` keys of this size, so the
// keys of one enumeration share a few allocations.
func encodeKey(b *strings.Builder, expect, round int, failed uint64, trackEnv bool, locals []string) (key, envKey string) {
	var envBuf [48]byte
	var num [20]byte
	env := proto.AppendField(envBuf[:0], strconv.AppendInt(append(num[:0], 'r'), int64(round), 10))
	if trackEnv {
		env = proto.AppendField(env, strconv.AppendUint(append(num[:0], 'f'), failed, 16))
	}
	size := fieldLen(len(env))
	for _, l := range locals {
		size += fieldLen(len(l))
	}
	if b.Cap()-b.Len() < size {
		*b = strings.Builder{}
		b.Grow(size * max(expect, 1))
	}
	start := b.Len()
	b.Write(strconv.AppendInt(num[:0], int64(len(env)), 10))
	b.WriteByte(':')
	envAt := b.Len()
	b.Write(env)
	for _, l := range locals {
		b.Write(strconv.AppendInt(num[:0], int64(len(l)), 10))
		b.WriteByte(':')
		b.WriteString(l)
	}
	all := b.String()
	return all[start:], all[envAt : envAt+len(env)]
}

// fieldLen is the length of a proto.Join field of n bytes.
func fieldLen(n int) int {
	digits := 1
	for d := n; d >= 10; d /= 10 {
		digits++
	}
	return digits + 1 + n
}

// N implements core.State.
func (s *State) N() int { return s.n }

// Key implements core.State.
func (s *State) Key() string { return s.key }

// AppendKey implements core.KeyAppender: the key is precomputed at
// construction, so the fast path is a copy of the cached bytes.
//lint:hotpath
func (s *State) AppendKey(dst []byte) []byte { return append(dst, s.key...) }

// EnvKey implements core.State.
func (s *State) EnvKey() string { return s.envKey }

// Local implements core.State.
func (s *State) Local(i int) string { return s.locals[i] }

// Decided implements core.State.
func (s *State) Decided(i int) (int, bool) {
	if s.decided[i] == core.Undecided {
		return core.Undecided, false
	}
	return s.decided[i], true
}

// FailedAt implements core.State. In the t-resilient model a process
// recorded as failed is silenced forever and is therefore faulty in every
// run through this state. In the mobile model no process is ever failed at a
// state (the model displays no finite failure).
func (s *State) FailedAt(i int) bool {
	if !s.trackEn {
		return false
	}
	return s.failed&(1<<uint(i)) != 0
}

// InputOf implements core.Input.
func (s *State) InputOf(i int) int { return s.inputs[i] }

// Round returns the round number (the number of layers applied so far).
func (s *State) Round() int { return s.round }

// Failed returns the bitmask of processes recorded as failed.
func (s *State) Failed() uint64 { return s.failed }

// FailedCount returns the number of processes recorded as failed.
func (s *State) FailedCount() int {
	c := 0
	for f := s.failed; f != 0; f &= f - 1 {
		c++
	}
	return c
}

// Locals returns a copy of the per-process local states.
func (s *State) Locals() []string { return append([]string(nil), s.locals...) }
