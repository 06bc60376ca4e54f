// Package proto defines the protocol interfaces for the three model families
// the paper analyzes (synchronous message passing, asynchronous read/write
// shared memory, asynchronous message passing), together with a small
// canonical string codec.
//
// Local protocol states are canonical strings: two logical states are equal
// exactly if their encodings are equal. This makes any protocol's states
// directly usable as the paper's local states L_i — the framework observes
// them only through equality, decisions, and the model's transition rules.
package proto

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ErrBadEncoding is returned by decoding helpers when the input is not a
// valid canonical encoding.
var ErrBadEncoding = errors.New("proto: bad encoding")

// Join encodes a sequence of fields into one unambiguous canonical string
// using length prefixes. Join is injective: distinct field sequences yield
// distinct strings, regardless of field contents.
func Join(fields ...string) string {
	var b strings.Builder
	size := 0
	for _, f := range fields {
		size += len(f) + 8
	}
	b.Grow(size)
	for _, f := range fields {
		b.WriteString(strconv.Itoa(len(f)))
		b.WriteByte(':')
		b.WriteString(f)
	}
	return b.String()
}

// AppendField appends f to dst as one field of Join's encoding, so that
// appending the fields of Join(a, b) in turn yields the same bytes.
func AppendField[F string | []byte](dst []byte, f F) []byte {
	dst = strconv.AppendInt(dst, int64(len(f)), 10)
	return append(append(dst, ':'), f...)
}

// Split decodes a string produced by Join back into its fields.
func Split(s string) ([]string, error) {
	var fields []string
	for len(s) > 0 {
		f, rest, err := NextField(s)
		if err != nil {
			return nil, err
		}
		fields = append(fields, f)
		s = rest
	}
	return fields, nil
}

// NextField decodes the first field of a Join encoding in place: field is
// a substring of s and rest is the encoding of the remaining fields. It is
// the decoder Split loops over, and allocates only on malformed input.
func NextField(s string) (field, rest string, err error) {
	colon := strings.IndexByte(s, ':')
	if colon < 0 {
		return "", "", fmt.Errorf("missing length prefix in %q: %w", s, ErrBadEncoding)
	}
	n, err := strconv.Atoi(s[:colon])
	if err != nil || n < 0 {
		return "", "", fmt.Errorf("bad length prefix in %q: %w", s, ErrBadEncoding)
	}
	s = s[colon+1:]
	if len(s) < n {
		return "", "", fmt.Errorf("truncated field in %q: %w", s, ErrBadEncoding)
	}
	return s[:n], s[n:], nil
}

// SplitInto decodes a Join encoding of exactly len(dst) fields into dst
// without copying them: it reports false, as Split would fail or return
// another field count, if s is malformed or has a different number of
// fields.
func SplitInto(s string, dst []string) bool {
	for i := range dst {
		if len(s) == 0 {
			return false
		}
		f, rest, err := NextField(s)
		if err != nil {
			return false
		}
		dst[i], s = f, rest
	}
	return len(s) == 0
}

// JoinInts encodes a sequence of integers canonically (order-preserving).
func JoinInts(xs ...int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// SplitInts decodes a JoinInts encoding.
func SplitInts(s string) ([]int, error) {
	out, err := ParseInts(nil, s)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ParseInts appends the integers of the JoinInts encoding s to dst,
// scanning s in place. On error the returned slice is dst unchanged; the
// integers already decoded may have been written into dst's spare
// capacity.
func ParseInts(dst []int, s string) ([]int, error) {
	if s == "" {
		return dst, nil
	}
	out := dst
	for {
		p, rest, more := strings.Cut(s, ",")
		x, err := strconv.Atoi(p)
		if err != nil {
			return dst, fmt.Errorf("bad int %q: %w", p, ErrBadEncoding)
		}
		out = append(out, x)
		if !more {
			return out, nil
		}
		s = rest
	}
}

// EncodeIntSet encodes a set of integers canonically: sorted ascending with
// duplicates removed.
func EncodeIntSet(xs []int) string {
	if len(xs) == 0 {
		return ""
	}
	sorted := make([]int, len(xs))
	copy(sorted, xs)
	sort.Ints(sorted)
	uniq := sorted[:1]
	for _, x := range sorted[1:] {
		if x != uniq[len(uniq)-1] {
			uniq = append(uniq, x)
		}
	}
	return JoinInts(uniq...)
}

// DecodeIntSet decodes an EncodeIntSet encoding into a sorted slice.
func DecodeIntSet(s string) ([]int, error) { return SplitInts(s) }
