package proto

import (
	"reflect"
	"slices"
	"testing"
)

// FuzzSplit: Split never panics and, where it succeeds, Join(Split(s))
// round-trips back to a canonical encoding of the same fields.
func FuzzSplit(f *testing.F) {
	f.Add("")
	f.Add("3:abc")
	f.Add("0:")
	f.Add("3:ab")         // truncated
	f.Add("x:abc")        // bad prefix
	f.Add("1:a2:bc3:def") // multi-field
	f.Add("10:short")     // length overrun
	f.Add(":::")          // pathological
	f.Fuzz(func(t *testing.T, s string) {
		fields, err := Split(s)
		for k := 0; k <= 4; k++ {
			dst := make([]string, k)
			ok := SplitInto(s, dst)
			if want := err == nil && len(fields) == k; ok != want {
				t.Fatalf("SplitInto(%q, %d fields) = %v, Split gave %q, %v", s, k, ok, fields, err)
			}
			if ok && k > 0 && !reflect.DeepEqual(dst, fields) {
				t.Fatalf("SplitInto(%q) = %q, Split gave %q", s, dst, fields)
			}
		}
		if err != nil {
			return
		}
		var enc []byte
		for _, f := range fields {
			enc = AppendField(enc, f)
		}
		if string(enc) != Join(fields...) {
			t.Fatalf("AppendField encoding %q differs from Join's %q", enc, Join(fields...))
		}
		again, err := Split(Join(fields...))
		if err != nil {
			t.Fatalf("re-split of canonical encoding failed: %v", err)
		}
		if len(fields) == 0 && len(again) == 0 {
			return
		}
		if !reflect.DeepEqual(fields, again) {
			t.Fatalf("round trip changed fields: %q -> %q", fields, again)
		}
	})
}

// FuzzDecodeIntSet: DecodeIntSet never panics; successful decodes re-encode
// to a stable canonical form.
func FuzzDecodeIntSet(f *testing.F) {
	f.Add("")
	f.Add("1,2,3")
	f.Add("-5,0,7")
	f.Add("not,numbers")
	f.Add("1,,2")
	f.Fuzz(func(t *testing.T, s string) {
		xs, err := DecodeIntSet(s)
		prefix := []int{42}
		got, perr := ParseInts(prefix, s)
		if (perr == nil) != (err == nil) || (err == nil && !slices.Equal(got[1:], xs)) {
			t.Fatalf("ParseInts(%q) = %v, %v; DecodeIntSet gave %v, %v", s, got, perr, xs, err)
		}
		if err != nil {
			if len(got) != 1 || got[0] != 42 {
				t.Fatalf("failed ParseInts(%q) returned %v, want dst unchanged", s, got)
			}
			return
		}
		enc := EncodeIntSet(xs)
		again, err := DecodeIntSet(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if EncodeIntSet(again) != enc {
			t.Fatalf("canonical form unstable: %q vs %q", enc, EncodeIntSet(again))
		}
	})
}
