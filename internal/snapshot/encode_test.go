package snapshot

import (
	"errors"
	"testing"
)

// header encodes a snapshot header as Encode writes it: magic, version,
// then version-specific fields. A version 1 header carries the T-THREAD
// engine name before the capture time.
func header(version uint32, at int64, spec []byte) []byte {
	e := &enc{}
	e.b.Write(magic[:])
	e.u32(version)
	if version == 1 {
		e.str("continuation")
	}
	e.i64(at)
	e.blob(spec)
	return e.b.Bytes()
}

func TestDecodeMetaRoundTrip(t *testing.T) {
	spec := []byte(`{"scenario":"synthetic"}`)
	meta, err := DecodeMeta(header(Version, 42, spec))
	if err != nil {
		t.Fatal(err)
	}
	if meta.At != 42 || string(meta.Spec) != string(spec) {
		t.Fatalf("decoded %+v", meta)
	}
}

// TestDecodeMetaRefusesV1: a version 1 snapshot (engine-named header) is
// honest format drift, not damage.
func TestDecodeMetaRefusesV1(t *testing.T) {
	_, err := DecodeMeta(header(1, 42, []byte(`{}`)))
	if !errors.Is(err, ErrIncompatible) {
		t.Fatalf("v1 header: got %v, want ErrIncompatible", err)
	}
}

// FuzzDecodeMeta: resume_from bytes arrive over HTTP, so the header
// decoder must never panic, and every refusal must be one of the two
// typed errors.
func FuzzDecodeMeta(f *testing.F) {
	f.Add(header(Version, 0, nil))
	f.Add(header(Version, 1<<40, []byte(`{"scenario":"synthetic","dur":"1s"}`)))
	f.Add(header(1, 5, []byte(`{}`)))
	f.Add(magic[:])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, err := DecodeMeta(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrIncompatible) {
				t.Fatalf("untyped refusal: %v", err)
			}
			return
		}
		if len(meta.Spec) > len(data) {
			t.Fatalf("spec blob (%d bytes) longer than the input (%d)", len(meta.Spec), len(data))
		}
	})
}
