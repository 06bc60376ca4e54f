package protocols

import (
	"strconv"

	"repro/internal/proto"
)

// EarlyFloodSet is FloodSet with a naive early-stopping rule: alongside W
// it tracks which processes it heard from in the previous and current
// rounds, and decides min(W) at the end of the first round (>= 2) whose
// heard-from set equals the previous round's — i.e. the first round in
// which it detected no new failure. As a safety net it also decides at
// round MaxRounds regardless.
//
// Early stopping in the crash model is classically possible in min(f+2,
// t+1) rounds, but the naive "my heard-set was stable" rule is exactly the
// kind of plausible optimization the certifier exists to judge: whether it
// preserves agreement under the S^t environment (crash-with-prefix-delivery
// then permanent silence) is settled empirically in the package tests and
// recorded in EXPERIMENTS.md.
//
// Local state encoding: round | W | prevHeard | curHeard | dec, where dec
// is the decided value or -1.
type EarlyFloodSet struct {
	// MaxRounds is the fallback decision round (use t+2).
	MaxRounds int
}

var _ proto.SyncProtocol = EarlyFloodSet{}

// Name implements proto.SyncProtocol.
func (e EarlyFloodSet) Name() string { return "earlyflood(M=" + strconv.Itoa(e.MaxRounds) + ")" }

// Init implements proto.SyncProtocol.
func (e EarlyFloodSet) Init(n, id, input int) string {
	return proto.Join("0",
		proto.EncodeIntSet([]int{input}),
		"", // prevHeard: none yet
		"", // curHeard: none yet
		"-1")
}

// Send implements proto.SyncProtocol: broadcast W.
func (e EarlyFloodSet) Send(state string) []string {
	var vals [16]int
	st, ok := parseEarly(state, vals[:0])
	if !ok {
		return broadcast("")
	}
	var set [64]byte
	return broadcast(string(appendIntSet(set[:0], st.w)))
}

// Deliver implements proto.SyncProtocol. Like FloodSet's, it scans the
// state and messages in place and allocates only the result string.
func (e EarlyFloodSet) Deliver(state string, in []string) string {
	var vals [16]int
	st, ok := parseEarly(state, vals[:0])
	if !ok {
		return state
	}
	var heardBuf [64]byte
	heard := heardBuf[:0] // proto.EncodeIntSet of the senders heard from
	for j, msg := range in {
		if msg == "" {
			continue
		}
		if len(heard) > 0 {
			heard = append(heard, ',')
		}
		heard = strconv.AppendInt(heard, int64(j), 10)
		if vs, err := proto.ParseInts(st.w, msg); err == nil {
			st.w = vs
		}
	}
	st.round++
	if st.dec < 0 {
		stable := st.round >= 2 && string(heard) == st.curHeard
		if stable || st.round >= e.MaxRounds {
			st.dec = minOf(st.w)
		}
	}
	var out [128]byte
	b := appendIntField(out[:0], st.round)
	b = appendSetField(b, st.w)
	b = proto.AppendField(b, st.curHeard) // the new prevHeard
	b = proto.AppendField(b, heard)
	return string(appendIntField(b, st.dec))
}

// Decide implements proto.SyncProtocol.
func (e EarlyFloodSet) Decide(state string) (int, bool) {
	var vals [16]int
	st, ok := parseEarly(state, vals[:0])
	if !ok || st.dec < 0 {
		return 0, false
	}
	return st.dec, true
}

type earlyState struct {
	round     int
	w         []int
	prevHeard string
	curHeard  string
	dec       int
}

// parseEarly decodes the state round | W | prevHeard | curHeard | dec in
// place, appending W's values to w; it reports false for a malformed state.
func parseEarly(state string, w []int) (earlyState, bool) {
	var fields [5]string
	if !proto.SplitInto(state, fields[:]) {
		return earlyState{}, false
	}
	round, err1 := strconv.Atoi(fields[0])
	w, err2 := proto.ParseInts(w, fields[1])
	dec, err3 := strconv.Atoi(fields[4])
	if err1 != nil || err2 != nil || err3 != nil {
		return earlyState{}, false
	}
	return earlyState{
		round:     round,
		w:         w,
		prevHeard: fields[2],
		curHeard:  fields[3],
		dec:       dec,
	}, true
}

func minOf(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	min := xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
	}
	return min
}
