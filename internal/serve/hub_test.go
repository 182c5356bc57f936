package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kkt/internal/faultplan"
	"kkt/internal/obsv"
	"kkt/internal/race"
)

// subscribe opens the hub's event stream at url. The response headers
// arrive only after the hub has registered the subscriber, so a publish
// after subscribe returns always reaches it. Register srv.Close with
// t.Cleanup before calling this: cleanups run last-first, so the stream
// is closed before the server waits for its handlers.
func subscribe(t *testing.T, url string) *StreamReader {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatalf("subscribe %s: %v", url, err)
	}
	t.Cleanup(func() {
		resp.Body.Close()
		cancel()
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe %s: %s", url, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("subscribe %s: Content-Type %q", url, ct)
	}
	return NewStreamReader(resp.Body)
}

// TestHubStream subscribes a real HTTP client to a hub and checks the
// full-then-delta protocol: first message carries a full snapshot, later
// ones deltas, and applying the deltas tracks the publisher's recorder.
func TestHubStream(t *testing.T) {
	hub := NewHub()
	rec := obsv.NewRecorder("stream-test")
	pub := NewPublisher(hub, rec)
	srv := httptest.NewServer(hub)
	t.Cleanup(srv.Close)

	c := subscribe(t, srv.URL+"/stream")
	if hub.Subscribers() != 1 {
		t.Fatalf("%d subscribers registered, want 1", hub.Subscribers())
	}

	kinds := makeKindScratch()
	for i := 0; i < 30; i++ {
		driveStepServe(rec, i, kinds)
		pub.Publish(ServeStats{Epoch: i / 10, EventsDone: i, EventsTotal: 30, QueueDepth: 30 - i})
	}

	var state obsv.Snapshot
	var got int
	var sawDelta bool
	for got < 5 {
		raw, err := c.Next()
		if err != nil {
			t.Fatalf("read message %d: %v", got, err)
		}
		var msg PushMsg
		if err := json.Unmarshal(raw, &msg); err != nil {
			t.Fatalf("bad push message: %v", err)
		}
		switch {
		case msg.Full != nil:
			state = *msg.Full
		case msg.Delta != nil:
			if got == 0 {
				t.Fatal("first message was a delta, want full snapshot")
			}
			sawDelta = true
			state = obsv.Apply(state, *msg.Delta)
		default:
			t.Fatal("push message with neither full nor delta")
		}
		if msg.Serve.EventsTotal != 30 {
			t.Errorf("serve stats missing: %+v", msg.Serve)
		}
		got++
	}
	if !sawDelta {
		t.Error("stream never switched to deltas")
	}
	if state.Repairs.Finished == 0 && state.Messages == 0 {
		t.Error("reconstructed snapshot is empty")
	}
}

// TestHubSlowClientResync overflows a subscriber's bounded buffer (a
// registered client whose channel nobody drains — the slow-reader case),
// then drains it and checks the next delivery is a full-snapshot resync
// carrying the drop count. Uses the hub's internals directly so the
// overflow is deterministic rather than at the mercy of socket buffers.
func TestHubSlowClientResync(t *testing.T) {
	hub := NewHub()
	rec := obsv.NewRecorder("slow-test")
	pub := NewPublisher(hub, rec)

	c := &hubClient{ch: make(chan []byte, hubClientBuffer)}
	c.needFull.Store(true)
	hub.mu.Lock()
	hub.clients[c] = struct{}{}
	hub.mu.Unlock()
	hub.subs.Add(1)

	// Publish past the buffer capacity without draining: the overflow
	// must be counted and flagged, never block the publisher.
	kinds := makeKindScratch()
	for i := 0; i < hubClientBuffer*2; i++ {
		driveStepServe(rec, i, kinds)
		pub.Publish(ServeStats{EventsDone: i})
	}
	if c.drops.Load() == 0 {
		t.Fatal("overflowed client counted no drops")
	}
	if !c.needFull.Load() {
		t.Fatal("overflowed client not flagged for resync")
	}

	// Drain, then publish once more: the delivery after a gap must be a
	// full snapshot reporting the gap size.
	for len(c.ch) > 0 {
		<-c.ch
	}
	wantDrops := c.drops.Load()
	driveStepServe(rec, 999, kinds)
	pub.Publish(ServeStats{EventsDone: 999})
	var msg PushMsg
	if err := json.Unmarshal(<-c.ch, &msg); err != nil {
		t.Fatal(err)
	}
	if msg.Full == nil {
		t.Error("resync after drops did not carry a full snapshot")
	}
	if msg.Drops != wantDrops {
		t.Errorf("resync reports %d drops, want %d", msg.Drops, wantDrops)
	}
}

// TestPublishDisabledAllocs is the acceptance gate on the disabled path:
// with zero subscribers, Publish must not allocate (or snapshot, or
// diff) at all.
func TestPublishDisabledAllocs(t *testing.T) {
	race.SkipAllocTest(t)
	hub := NewHub()
	rec := obsv.NewRecorder("idle")
	kinds := makeKindScratch()
	for i := 0; i < 100; i++ {
		driveStepServe(rec, i, kinds)
	}
	pub := NewPublisher(hub, rec)
	ss := ServeStats{Epoch: 1, EventsDone: 50, EventsTotal: 100}
	if allocs := testing.AllocsPerRun(1000, func() { pub.Publish(ss) }); allocs != 0 {
		t.Errorf("Publish with no subscribers allocates %.1f per call, want 0", allocs)
	}
}

// TestServeWSEndToEnd runs a real (small) daemon with a hub wired into
// its wave callbacks and asserts a subscriber sees live repair deltas —
// the in-process version of the CI smoke gate.
func TestServeWSEndToEnd(t *testing.T) {
	hub := NewHub()
	rec := obsv.NewRecorder("e2e")
	pub := NewPublisher(hub, rec)
	srv := httptest.NewServer(hub)
	t.Cleanup(srv.Close)
	c := subscribe(t, srv.URL)

	cfg := Config{
		Spec:        GraphSpec{Family: "gnm", N: 40, M: 120, Seed: 3},
		Algo:        "mst",
		Seed:        21,
		Wave:        4,
		EpochEvents: 8,
		Events:      32,
		Churn:       faultplan.Plan{TreeEdgeDeletes: 3, Deletes: 2, Inserts: 2, WeightChanges: 1},
		Observer:    rec,
	}
	cfg.OnWave = func(wi WaveInfo) {
		pub.Publish(ServeStats{
			Epoch: wi.Epoch, EventsDone: wi.Stats.Repairs + wi.Stats.Inline, EventsTotal: cfg.Events,
			QueueDepth: wi.Pending, Repairs: wi.Stats.Repairs, Waves: wi.Stats.Waves, Retries: wi.Stats.Retries,
		})
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	var state obsv.Snapshot
	sawRepair := false
	for i := 0; i < 200 && !sawRepair; i++ {
		raw, err := c.Next()
		if err != nil {
			break // stream drained
		}
		var msg PushMsg
		if err := json.Unmarshal(raw, &msg); err != nil {
			t.Fatal(err)
		}
		if msg.Full != nil {
			state = *msg.Full
		} else if msg.Delta != nil {
			state = obsv.Apply(state, *msg.Delta)
		}
		if state.Repairs.Finished > 0 {
			sawRepair = true
		}
	}
	if !sawRepair {
		t.Error("subscriber never saw a finished repair in the live stream")
	}
}

// TestStreamEndsOnServerClose: when the server drops the connection
// between events — what http.Server.Close does to a live stream — the
// subscriber's read ends with a clean io.EOF.
func TestStreamEndsOnServerClose(t *testing.T) {
	hub := NewHub()
	pub := NewPublisher(hub, obsv.NewRecorder("close-test"))
	srv := httptest.NewServer(hub)
	t.Cleanup(srv.Close)
	c := subscribe(t, srv.URL)

	pub.Publish(ServeStats{EventsTotal: 1})
	if _, err := c.Next(); err != nil {
		t.Fatalf("first message: %v", err)
	}
	srv.CloseClientConnections()
	if _, err := c.Next(); err != io.EOF {
		t.Errorf("read after server close = %v, want io.EOF", err)
	}
}

// TestHubRejectsNonGET: the stream is read-only; any other method gets
// 405 and never registers a subscriber.
func TestHubRejectsNonGET(t *testing.T) {
	hub := NewHub()
	srv := httptest.NewServer(hub)
	t.Cleanup(srv.Close)
	resp, err := http.Post(srv.URL, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %s, want 405", resp.Status)
	}
	if got := resp.Header.Get("Allow"); got != http.MethodGet {
		t.Errorf("Allow = %q, want GET", got)
	}
	if hub.Subscribers() != 0 {
		t.Errorf("rejected request left %d subscribers", hub.Subscribers())
	}
}

// TestStreamReaderGrammar pins the event grammar the reader accepts.
func TestStreamReaderGrammar(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     []string
		err      error // after the wanted messages; nil means io.EOF
	}{
		{"hub-framing", "data: {\"seq\":1}\n\ndata: {\"seq\":2}\n\n", []string{`{"seq":1}`, `{"seq":2}`}, nil},
		{"comments-and-blank-lines", ": hello\n\n\ndata: x\n: mid\n\n", []string{"x"}, nil},
		{"multi-line", "data: a\ndata:b\ndata\n\n", []string{"a\nb\n"}, nil},
		{"crlf", "data: x\r\n\r\n", []string{"x"}, nil},
		{"other-fields", "event: push\nid: 7\nretry: 10\ndata: x\n\n", []string{"x"}, nil},
		{"truncated-event", "data: x\n\ndata: y", []string{"x"}, io.ErrUnexpectedEOF},
		{"empty", "", nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewStreamReader(strings.NewReader(tc.in))
			for _, want := range tc.want {
				got, err := r.Next()
				if err != nil || string(got) != want {
					t.Fatalf("Next() = %q, %v; want %q", got, err, want)
				}
			}
			wantErr := tc.err
			if wantErr == nil {
				wantErr = io.EOF
			}
			if _, err := r.Next(); err != wantErr {
				t.Errorf("final Next() error = %v, want %v", err, wantErr)
			}
		})
	}

	over := "data: " + strings.Repeat("x", 600) + "\ndata: " + strings.Repeat("x", 600) + "\n\n"
	if _, err := newStreamReader(strings.NewReader(over), 1024).Next(); err == nil || errors.Is(err, io.EOF) {
		t.Errorf("over-limit event accepted (err %v)", err)
	}
	long := "data: " + strings.Repeat("x", 2048) + "\n\n"
	if _, err := newStreamReader(strings.NewReader(long), 1024).Next(); err == nil || errors.Is(err, io.EOF) {
		t.Errorf("over-limit line accepted (err %v)", err)
	}
}

// --- test helpers -----------------------------------------------------

type congestKindCounts = struct{ Messages, Bits uint64 }

func makeKindScratch() []congestKindCounts {
	return make([]congestKindCounts, 8)
}

// driveStepServe mirrors the obsv package's test driver: one scripted
// engine step of observer traffic.
func driveStepServe(r *obsv.Recorder, i int, kinds []congestKindCounts) {
	kinds[0].Messages += uint64(i%5 + 1)
	kinds[0].Bits += uint64(i % 31)
	r.RoundEnd(int64(i+1), uint64(7*i), uint64(120*i), nil, nil)
	switch i % 3 {
	case 0:
		r.RepairStart("mst.delete", int64(i+1))
		r.RepairDone("mst.delete", "replace", int64(i+1), int64(i%9+1), uint64(i), uint64(2*i))
	case 1:
		r.Count("wave.launched", 1)
	}
}
