package protocols_test

import (
	"slices"
	"strconv"
	"testing"

	"repro/internal/proto"
	"repro/internal/protocols"
)

// oldFloodSet is FloodSet's codec as it was before it scanned states in
// place: every call re-splits the state with proto.Split and decodes sets
// with proto.DecodeIntSet. It is the oracle FuzzFloodSetDeliver holds the
// in-place codec to.
type oldFloodSet struct{ Rounds int }

func (f oldFloodSet) Send(state string) []string {
	_, w := f.parse(state)
	return fill(proto.EncodeIntSet(w))
}

func (f oldFloodSet) Deliver(state string, in []string) string {
	round, w := f.parse(state)
	for _, m := range in {
		if m == "" {
			continue
		}
		vs, err := proto.DecodeIntSet(m)
		if err != nil {
			continue
		}
		w = append(w, vs...)
	}
	return proto.Join(strconv.Itoa(round+1), proto.EncodeIntSet(w))
}

func (f oldFloodSet) Decide(state string) (int, bool) {
	round, w := f.parse(state)
	if round < f.Rounds || len(w) == 0 {
		return 0, false
	}
	return slices.Min(w), true
}

func (f oldFloodSet) parse(state string) (round int, w []int) {
	fields, err := proto.Split(state)
	if err != nil || len(fields) != 2 {
		return 0, nil
	}
	round, err = strconv.Atoi(fields[0])
	if err != nil {
		return 0, nil
	}
	w, err = proto.DecodeIntSet(fields[1])
	if err != nil {
		return round, nil
	}
	return round, w
}

// oldEarlyFloodSet is EarlyFloodSet's proto.Split-based codec, the oracle
// for the in-place one.
type oldEarlyFloodSet struct{ MaxRounds int }

type oldEarlyState struct {
	round               int
	w                   []int
	prevHeard, curHeard string
	dec                 int
}

func oldParseEarly(state string) (oldEarlyState, bool) {
	fields, err := proto.Split(state)
	if err != nil || len(fields) != 5 {
		return oldEarlyState{}, false
	}
	round, err1 := strconv.Atoi(fields[0])
	w, err2 := proto.DecodeIntSet(fields[1])
	dec, err3 := strconv.Atoi(fields[4])
	if err1 != nil || err2 != nil || err3 != nil {
		return oldEarlyState{}, false
	}
	return oldEarlyState{round, w, fields[2], fields[3], dec}, true
}

func (e oldEarlyFloodSet) Send(state string) []string {
	st, ok := oldParseEarly(state)
	if !ok {
		return fill("")
	}
	return fill(proto.EncodeIntSet(st.w))
}

func (e oldEarlyFloodSet) Deliver(state string, in []string) string {
	st, ok := oldParseEarly(state)
	if !ok {
		return state
	}
	var heard []int
	for j, msg := range in {
		if msg == "" {
			continue
		}
		heard = append(heard, j)
		vs, err := proto.DecodeIntSet(msg)
		if err != nil {
			continue
		}
		st.w = append(st.w, vs...)
	}
	st.round++
	st.prevHeard = st.curHeard
	st.curHeard = proto.EncodeIntSet(heard)
	if st.dec < 0 {
		stable := st.round >= 2 && st.curHeard == st.prevHeard
		if stable || st.round >= e.MaxRounds {
			st.dec = 0
			if len(st.w) > 0 {
				st.dec = slices.Min(st.w)
			}
		}
	}
	return proto.Join(strconv.Itoa(st.round),
		proto.EncodeIntSet(st.w), st.prevHeard, st.curHeard, strconv.Itoa(st.dec))
}

func (e oldEarlyFloodSet) Decide(state string) (int, bool) {
	st, ok := oldParseEarly(state)
	if !ok || st.dec < 0 {
		return 0, false
	}
	return st.dec, true
}

func fill(msg string) []string {
	out := make([]string, 16)
	for i := range out {
		out[i] = msg
	}
	return out
}

// codec is the part of proto.SyncProtocol the fuzz target compares.
type codec interface {
	Send(string) []string
	Deliver(string, []string) string
	Decide(string) (int, bool)
}

// bitSet decodes the set {i-2 : bit i of b set}, so negative values occur.
func bitSet(b uint8) []int {
	var out []int
	for i := 0; i < 8; i++ {
		if b&(1<<i) != 0 {
			out = append(out, i-2)
		}
	}
	return out
}

// FuzzFloodSetDeliver holds the in-place FloodSet and EarlyFloodSet codecs
// to their proto.Split-based predecessors: on canonical states built from
// the fuzz inputs, on the raw fuzz string as a state, and on arbitrary
// message vectors, Send, Deliver and Decide must agree exactly. It also
// pins the two robustness rules directly: a malformed message is ignored,
// and a malformed state decodes to the zero state.
func FuzzFloodSetDeliver(f *testing.F) {
	f.Add(uint8(0), uint8(0b100), uint8(0), uint8(0), int8(-1), "", "1", "0,1", "")
	f.Add(uint8(1), uint8(0b1100), uint8(0b11), uint8(0b11), int8(-1), "0", "", "1", "1:12:0,1")
	f.Add(uint8(2), uint8(0b1), uint8(0b111), uint8(0b101), int8(0), "garbage-%%%", "1,,2", "-3,7", "x:abc")
	f.Add(uint8(3), uint8(0xff), uint8(0), uint8(0), int8(1), "+1", "007,-0", "99999999999999999999", "+1:03:1,0")
	f.Add(uint8(1), uint8(0), uint8(1), uint8(0), int8(-1), ",", "1,", "", "1:10:1:-1")
	f.Add(uint8(0), uint8(0b11), uint8(0), uint8(0), int8(-1), "2,1,1", "", "", "1:11:01:")
	f.Fuzz(func(t *testing.T, round, wbits, prev, cur uint8, dec int8, m0, m1, m2, raw string) {
		r := strconv.Itoa(int(round % 5))
		w := proto.EncodeIntSet(bitSet(wbits))
		flood := proto.Join(r, w)
		early := proto.Join(r, w, proto.EncodeIntSet(bitSet(prev%8)),
			proto.EncodeIntSet(bitSet(cur%8)), strconv.Itoa(int(dec)))
		in := []string{m0, m1, m2}
		for bound := 0; bound <= 3; bound++ {
			pairs := []struct {
				name      string
				got, want codec
				states    []string
			}{
				{"floodset", protocols.FloodSet{Rounds: bound}, oldFloodSet{bound}, []string{flood, raw}},
				{"earlyflood", protocols.EarlyFloodSet{MaxRounds: bound}, oldEarlyFloodSet{bound}, []string{early, raw}},
			}
			for _, c := range pairs {
				for _, s := range c.states {
					if got, want := c.got.Send(s), c.want.Send(s); !slices.Equal(got, want) {
						t.Fatalf("%s(%d).Send(%q) = %q, want %q", c.name, bound, s, got[0], want[0])
					}
					gv, gok := c.got.Decide(s)
					wv, wok := c.want.Decide(s)
					if gv != wv || gok != wok {
						t.Fatalf("%s(%d).Decide(%q) = (%d,%v), want (%d,%v)", c.name, bound, s, gv, gok, wv, wok)
					}
					got, want := c.got.Deliver(s, in), c.want.Deliver(s, in)
					if got != want {
						t.Fatalf("%s(%d).Deliver(%q, %q) = %q, want %q", c.name, bound, s, in, got, want)
					}
				}
			}
		}

		fs := protocols.FloodSet{Rounds: 1}
		clean := append([]string(nil), in...)
		for i, m := range clean {
			if _, err := proto.DecodeIntSet(m); err != nil {
				clean[i] = ""
			}
		}
		if got, want := fs.Deliver(flood, in), fs.Deliver(flood, clean); got != want {
			t.Fatalf("malformed messages in %q changed Deliver: %q, want %q", in, got, want)
		}
		if fields, err := proto.Split(raw); err != nil || len(fields) != 2 {
			if v, ok := fs.Decide(raw); v != 0 || ok {
				t.Fatalf("malformed state %q decided (%d,%v)", raw, v, ok)
			}
			if got, want := fs.Deliver(raw, in), fs.Deliver(proto.Join("0", ""), in); got != want {
				t.Fatalf("malformed state %q: Deliver = %q, want the zero state's %q", raw, got, want)
			}
		}
		if fields, err := proto.Split(raw); err != nil || len(fields) != 5 {
			e := protocols.EarlyFloodSet{MaxRounds: 1}
			if got := e.Deliver(raw, in); got != raw {
				t.Fatalf("malformed early state %q: Deliver = %q, want it unchanged", raw, got)
			}
		}
	})
}
