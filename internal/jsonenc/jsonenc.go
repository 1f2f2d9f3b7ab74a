// Package jsonenc appends JSON scalars exactly as encoding/json writes
// them. It is the one home of the string and float formatting that the
// hand-written artifact encoders (the Perfetto exporter and the metrics
// report) share, so their bytes match what encoding/json made of the
// structs they replaced.
package jsonenc

import (
	"encoding/json"
	"math"
	"strconv"
)

// plain marks the bytes encoding/json copies into a string unchanged:
// printable ASCII other than the quote, the backslash and the HTML-escaped
// <, > and &.
var plain = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// AppendString appends s as a JSON string. A string of plain bytes is
// copied between quotes; any other goes through json.Marshal, so HTML
// escaping, control bytes, invalid UTF-8 and U+2028/2029 come out exactly
// as encoding/json writes them.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// AppendFloat appends f as encoding/json formats a float64: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21 up, and a
// one-digit negative exponent without its leading zero. NaN and ±Inf
// append nothing and return json.Marshal's UnsupportedValueError.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		return dst, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 -> e-7
		b = b[:n-1]
	}
	return b, nil
}
