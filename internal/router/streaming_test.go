package router

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestRouterForwardsStreaming drives the v3 streaming surface through the
// router: a streamed submission routes by hash, its live SSE event feed
// and its artifacts forward by job-ID prefix to the owning shard, and the
// streamed bytes match a buffered duplicate fetched through the router.
func TestRouterForwardsStreaming(t *testing.T) {
	_, _, ts := fleet(t, 3)

	streamed := postJob(t, ts, `{"dur":"60ms","seed":3,"artifacts":["trace.json","metrics.json"],"stream":true}`)
	if !strings.Contains(streamed.ID, "-") {
		t.Fatalf("job ID %q carries no shard prefix", streamed.ID)
	}

	// The SSE feed forwards to the owning shard and runs to its terminal
	// event (the server closes the feed, which ends the read).
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + streamed.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("events through router: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var sawTerminalDone bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") &&
			strings.Contains(line, `"terminal":true`) && strings.Contains(line, `"state":"done"`) {
			sawTerminalDone = true
		}
	}
	if !sawTerminalDone {
		t.Fatal("feed ended without a terminal done event")
	}

	v := waitDone(t, ts, streamed.ID)
	if !v.Stream {
		t.Fatalf("job view lost stream flag: %+v", v)
	}

	// A buffered duplicate routes to the same shard and answers from its
	// cache (landed by the streamed run); bytes match through the router.
	buffered := postJob(t, ts, `{"dur":"60ms","seed":3,"artifacts":["trace.json","metrics.json"]}`)
	bv := waitDone(t, ts, buffered.ID)
	if !bv.Cached {
		t.Fatalf("buffered duplicate not served from cache: %+v", bv)
	}
	for _, name := range []string{"trace.json", "metrics.json"} {
		sresp, err := http.Get(ts.URL + "/api/v1/jobs/" + streamed.ID + "/artifacts/" + name + "?stream=1")
		if err != nil {
			t.Fatal(err)
		}
		sb, _ := io.ReadAll(sresp.Body)
		sresp.Body.Close()
		bresp, err := http.Get(ts.URL + "/api/v1/jobs/" + buffered.ID + "/artifacts/" + name)
		if err != nil {
			t.Fatal(err)
		}
		bb, _ := io.ReadAll(bresp.Body)
		bresp.Body.Close()
		if len(sb) == 0 || !bytes.Equal(sb, bb) {
			t.Errorf("%s: streamed %d bytes != buffered %d bytes through router", name, len(sb), len(bb))
		}
	}

	// Fleet varz aggregates the streaming counters.
	var vz Varz
	if code, b := getJSON(t, ts.URL+"/varz", &vz); code != http.StatusOK {
		t.Fatalf("varz: %d: %s", code, b)
	}
	if vz.Totals.StreamJobs != 1 {
		t.Errorf("totals.stream_jobs = %d", vz.Totals.StreamJobs)
	}
	if vz.Totals.EventStreamsServed == 0 {
		t.Errorf("totals.event_streams_served = 0")
	}

	// Events of an unprefixed or unknown job stay a clean envelope.
	if code, b := getJSON(t, ts.URL+"/api/v1/jobs/zzz/events", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job events: %d: %s", code, b)
	}
}
