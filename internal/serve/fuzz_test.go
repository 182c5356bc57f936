package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"

	"kkt/internal/faultplan"
)

// FuzzReadTrace: ReadTrace never panics; every trace it accepts survives
// a WriteTrace/ReadTrace round trip unchanged; and a small trace the
// daemon accepts replays without panicking (errors are fine). The seed
// corpus under testdata/fuzz/FuzzReadTrace holds a compiled trace, the
// out-of-range endpoint that once crashed the daemon, and malformed
// headers and lines.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, evs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, hdr, evs); err != nil {
			t.Fatalf("WriteTrace of an accepted trace: %v", err)
		}
		hdr2, evs2, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-read of a written trace: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(hdr2, hdr) || !reflect.DeepEqual(evs2, evs) {
			t.Fatalf("round trip changed the trace:\n got  %+v %+v\n want %+v %+v", hdr2, evs2, hdr, evs)
		}

		// Replay only what stays cheap: a small graph and a short stream.
		// The header digest is left out so mutated graphs still replay.
		spec := hdr.Spec.WithDefaults()
		if len(evs) == 0 || spec.N > 64 || spec.M > 256 {
			return
		}
		d, err := New(Config{Spec: spec, Seed: 1, Wave: 4, EpochEvents: 4, Trace: evs, Events: min(len(evs), 32)})
		if err != nil {
			return
		}
		_, _ = d.Run(context.Background())
	})
}

// FuzzResume: a checkpoint that Resume accepts runs on without panicking
// (errors are fine). The digest is not checked here: anyone can recompute
// it, so Resume is the gate. The seed corpus under
// testdata/fuzz/FuzzResume holds a real small checkpoint and the two
// crafted states that once crashed the daemon: an out-of-range endpoint
// and a fully marked graph.
func FuzzResume(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var cp Checkpoint
		if json.Unmarshal(data, &cp) != nil {
			return
		}
		// Run only what stays cheap: a small graph and a short stream.
		fp := cp.Fingerprint
		spec := fp.Spec.WithDefaults()
		if spec.N > 64 || spec.M > 256 || len(cp.State.Edges) > 1024 || fp.EpochEvents > 64 || churnOver(fp.Churn, 16) {
			return
		}
		cfg := Config{
			Spec: fp.Spec, Algo: fp.Algo, Seed: fp.Seed, Wave: fp.Wave,
			EpochEvents: fp.EpochEvents, Churn: fp.Churn, Events: cp.EventsDone + 8,
		}
		d, err := Resume(cfg, cp)
		if err != nil {
			return
		}
		_, _ = d.Run(context.Background())
	})
}

// churnOver reports whether any stage of p exceeds limit.
func churnOver(p faultplan.Plan, limit int) bool {
	for _, v := range []int{
		p.Partitions, p.PartitionSize, p.Bursts, p.BurstRadius, p.BridgeDeletes, p.TreeEdgeDeletes,
		p.HubDeletes, p.Deletes, p.Inserts, p.WeightChanges, p.Heals,
	} {
		if v > limit {
			return true
		}
	}
	return false
}

// FuzzStreamReader: the push-stream reader never panics, never returns a
// message over its limit, and always ends; any single-line payload framed
// the way the hub frames it reads back unchanged. The reader runs at a
// 64-byte limit so the seed corpus under testdata/fuzz/FuzzStreamReader
// can hold small over-limit messages.
func FuzzStreamReader(f *testing.F) {
	const limit = 64
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newStreamReader(bytes.NewReader(data), limit)
		for i := 0; ; i++ {
			if i > len(data) {
				t.Fatalf("%d messages from %d bytes", i, len(data))
			}
			msg, err := r.Next()
			if err != nil {
				break
			}
			if len(msg) > limit {
				t.Fatalf("message of %d bytes passed the %d-byte limit", len(msg), limit)
			}
		}

		if len(data) > limit || bytes.ContainsAny(data, "\r\n") {
			return
		}
		framed := append(append([]byte("data: "), data...), "\n\n"...)
		r = newStreamReader(bytes.NewReader(framed), limit)
		msg, err := r.Next()
		if err != nil || !bytes.Equal(msg, data) {
			t.Fatalf("framed payload %q read back as %q, %v", data, msg, err)
		}
		if _, err := r.Next(); !errors.Is(err, io.EOF) {
			t.Fatalf("after the only event: %v, want io.EOF", err)
		}
	})
}
