// Package protocols provides the concrete deterministic protocols the
// framework instantiates the paper's (universally quantified) theorems with:
// correct ones, which the analysis engine must certify, and deliberately
// too-fast or asynchronous heuristics, which the engine must refute with a
// concrete witness run.
package protocols

import (
	"slices"
	"strconv"

	"repro/internal/proto"
)

// FloodSet is the classical t-resilient synchronous consensus protocol
// (Lynch, ch. 6): every process maintains the set W of input values it has
// seen, floods W every round, and after Rounds rounds decides min(W).
//
// With Rounds = t+1 it solves consensus in the t-resilient synchronous
// model with crash failures; the paper's Section 6 shows no protocol can do
// better, and the analysis engine refutes the Rounds = t variant.
//
// Under sending-omission failures (the Section 6 environment blocks an
// arbitrary subset of a faulty process's messages in its first faulty round)
// FloodSet still solves consensus with Rounds = t+1: the standard argument —
// some round is failure-free among t+1 rounds, after which all W sets are
// equal and stay equal — applies verbatim.
//
// Local state encoding: round | W (sorted int set). The id and n are not
// needed after Init.
type FloodSet struct {
	// Rounds is the round after which the process decides min(W).
	Rounds int
}

var _ proto.SyncProtocol = FloodSet{}

// Name implements proto.SyncProtocol.
func (f FloodSet) Name() string { return "floodset(R=" + strconv.Itoa(f.Rounds) + ")" }

// Init implements proto.SyncProtocol.
func (f FloodSet) Init(n, id, input int) string {
	return proto.Join("0", proto.EncodeIntSet([]int{input}))
}

// Send implements proto.SyncProtocol: broadcast W.
func (f FloodSet) Send(state string) []string {
	var vals [16]int
	_, w := f.parse(state, vals[:0])
	var set [64]byte
	enc := appendIntSet(set[:0], w)
	// W is the state's last field, so a canonical state already holds the
	// message's bytes: share them instead of copying.
	msg := state[len(state)-min(len(enc), len(state)):]
	if msg != string(enc) {
		msg = string(enc)
	}
	// The number of processes is not recorded in the state; emit a
	// broadcast vector sized by demand: the model only indexes out[j] for
	// j < n, so we use a self-describing broadcast.
	return broadcast(msg)
}

// Deliver implements proto.SyncProtocol. Malformed messages are ignored.
// The state and messages are scanned in place; the result string is the
// only allocation.
func (f FloodSet) Deliver(state string, in []string) string {
	var vals [16]int
	round, w := f.parse(state, vals[:0])
	for _, m := range in {
		if m == "" {
			continue
		}
		if vs, err := proto.ParseInts(w, m); err == nil {
			w = vs
		}
	}
	var out [64]byte
	b := appendIntField(out[:0], round+1)
	return string(appendSetField(b, w))
}

// Decide implements proto.SyncProtocol: after Rounds rounds, decide min(W).
func (f FloodSet) Decide(state string) (int, bool) {
	var vals [16]int
	round, w := f.parse(state, vals[:0])
	if round < f.Rounds || len(w) == 0 {
		return 0, false
	}
	return slices.Min(w), true
}

// parse decodes the state round | W in place, appending W's values to w.
// A malformed state yields round 0 and no values; a malformed W keeps the
// round and yields no values.
func (f FloodSet) parse(state string, w []int) (int, []int) {
	var fields [2]string
	if !proto.SplitInto(state, fields[:]) {
		return 0, w
	}
	round, err := strconv.Atoi(fields[0])
	if err != nil {
		return 0, w
	}
	if vs, err := proto.ParseInts(w, fields[1]); err == nil {
		w = vs
	}
	return round, w
}

// appendIntSet appends proto.EncodeIntSet(w) to dst, sorting w in place.
func appendIntSet(dst []byte, w []int) []byte {
	slices.Sort(w)
	for i, x := range w {
		if i > 0 && x == w[i-1] {
			continue
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return dst
}

// appendIntField appends strconv.Itoa(x) as one proto.Join field.
func appendIntField(dst []byte, x int) []byte {
	var num [20]byte
	return proto.AppendField(dst, strconv.AppendInt(num[:0], int64(x), 10))
}

// appendSetField appends proto.EncodeIntSet(w) as one proto.Join field,
// sorting w in place.
func appendSetField(dst []byte, w []int) []byte {
	var set [64]byte
	return proto.AppendField(dst, appendIntSet(set[:0], w))
}

// broadcast returns a virtual send vector that yields msg for every index.
// Models index send vectors with 0 <= j < n; broadcastVec supports any n up
// to maxProcs.
func broadcast(msg string) []string {
	out := make([]string, maxProcs)
	for i := range out {
		out[i] = msg
	}
	return out
}

// maxProcs bounds the broadcast vector size; the framework's exhaustive
// analyses are only tractable for small n, so 16 is generous.
const maxProcs = 16
