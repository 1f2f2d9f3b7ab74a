package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzAppendString holds AppendString to json.Marshal of the same string,
// appended after a prefix it must leave alone.
func FuzzAppendString(f *testing.F) {
	for _, s := range []string{"", "worker", "tk_wai_sem", "q\"uote\\", "<a&b>", "ctl\x00\x1f\x7f",
		"tâche", "bad\xff\xfe", "line\u2028sep\u2029", "\t\n\r\b\f", "~ !#$%'()*+,-./:;=?@[]^_`{|}"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendString([]byte("prefix"), s)
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendString(%q) = %q, json.Marshal %q", s, got[len("prefix"):], want)
		}
	})
}

// FuzzAppendFloat holds AppendFloat to json.Marshal of the same float64:
// equal bytes, or for NaN and ±Inf the same error and nothing appended.
func FuzzAppendFloat(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), 1, -1.5, 0.003, 5e-7, 1e-6, 9.99999e-7,
		1e20, 1e21, 123456789.125, -1.5e-300, math.SmallestNonzeroFloat64, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		want, wantErr := json.Marshal(x)
		got, err := AppendFloat([]byte("prefix"), x)
		if errText(err) != errText(wantErr) {
			t.Fatalf("AppendFloat(%v) error %q, json.Marshal %q", x, errText(err), errText(wantErr))
		}
		if err != nil {
			want = nil
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendFloat(%v) = %q, json.Marshal %q", x, got[len("prefix"):], want)
		}
	})
}
