package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/run"
	"repro/internal/server"
)

// sseFeed renders events the way the server's feed handler writes them.
func sseFeed(t testing.TB, evs ...server.Event) []byte {
	var b bytes.Buffer
	for _, e := range evs {
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "id: %d\nevent: %s\ndata: %s\n\n", e.ID, e.Type, data)
	}
	return b.Bytes()
}

func jobFeed(t testing.TB) ([]server.Event, []byte) {
	evs := []server.Event{
		{ID: 1, Type: server.EventState, JobID: "j1", State: server.StateQueued},
		{ID: 2, Type: server.EventState, JobID: "j1", State: server.StateRunning},
		{ID: 3, Type: server.EventArtifact, JobID: "j1", Artifact: "metrics.json"},
		{ID: 4, Type: server.EventState, JobID: "j1", State: server.StateDone, Terminal: true,
			Stats: &run.Stats{Scenario: "synthetic", Ticks: 1000, CtxSwitches: 42}},
	}
	return evs, sseFeed(t, evs...)
}

func decodeAll(body []byte) ([]server.Event, error) {
	es := &EventStream{body: io.NopCloser(bytes.NewReader(body))}
	var out []server.Event
	for {
		e, err := es.Next()
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// TestEventStreamLineEndings decodes the same feed with LF and CRLF line
// endings.
func TestEventStreamLineEndings(t *testing.T) {
	want, lf := jobFeed(t)
	crlf := bytes.ReplaceAll(lf, []byte("\n"), []byte("\r\n"))
	for name, body := range map[string][]byte{"lf": lf, "crlf": crlf} {
		got, err := decodeAll(body)
		if err != io.EOF {
			t.Fatalf("%s: err = %v, want io.EOF", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded %v, want %v", name, got, want)
		}
	}
}

// TestEventStreamLineCap feeds a line one byte past the cap, with and
// without a newline, and one exactly at the cap.
func TestEventStreamLineCap(t *testing.T) {
	_, feed := jobFeed(t)
	long := bytes.Repeat([]byte{'x'}, MaxEventLine+1)
	for name, body := range map[string][]byte{
		"unterminated": append(append([]byte{}, feed[:len(feed)/2]...), long...),
		"terminated":   append(append([]byte(": "), long...), '\n'),
	} {
		if _, err := decodeAll(body); !errors.Is(err, ErrLineTooLong) {
			t.Errorf("%s: err = %v, want ErrLineTooLong", name, err)
		}
	}
	atCap := append(append([]byte(":"), long[:MaxEventLine-1]...), "\r\n"...)
	if got, err := decodeAll(append(atCap, feed...)); err != io.EOF || len(got) != 4 {
		t.Errorf("line at the cap: %d events, err %v; want 4, io.EOF", len(got), err)
	}
}

// FuzzEventStream runs Next over arbitrary bodies: it must end (every
// body is finite), keep LastID on the last decoded event, hold the buffer
// to the line cap plus one read, and report ErrLineTooLong only for a
// body that has an over-long line.
func FuzzEventStream(f *testing.F) {
	_, feed := jobFeed(f)
	f.Add(feed)
	f.Add(bytes.ReplaceAll(feed, []byte("\n"), []byte("\r\n")))
	f.Add(append([]byte("data: "), bytes.Repeat([]byte{'a'}, MaxEventLine+10)...))
	f.Add([]byte("data: {\"id\":7}\n\ndata: {\"id\":\n\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		es := &EventStream{body: io.NopCloser(bytes.NewReader(body))}
		for calls := 0; ; calls++ {
			if calls > len(body)+1 {
				t.Fatalf("%d events from a %d-byte body", calls, len(body))
			}
			e, err := es.Next()
			if len(es.buf) > MaxEventLine+1+eventReadChunk {
				t.Fatalf("buffer holds %d bytes", len(es.buf))
			}
			if err != nil {
				if errors.Is(err, ErrLineTooLong) && !hasLongLine(body) {
					t.Fatalf("ErrLineTooLong without a line over %d bytes", MaxEventLine)
				}
				return
			}
			if es.LastID() != e.ID {
				t.Fatalf("LastID %d after event %d", es.LastID(), e.ID)
			}
		}
	})
}

func hasLongLine(body []byte) bool {
	for _, line := range strings.Split(string(body), "\n") {
		if len(strings.TrimSuffix(line, "\r")) > MaxEventLine {
			return true
		}
	}
	return false
}
