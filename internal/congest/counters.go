package congest

import (
	"fmt"
	"sort"
	"strings"
)

// KindCount is the message/bit tally for one message kind.
type KindCount struct {
	Messages uint64
	Bits     uint64
}

// ledger is the internal cost accumulator: totals plus a per-kind array
// indexed by KindID. Charging is two adds and two array increments — no
// map hashing on the per-message hot path. Human-readable maps are built
// only at snapshot time.
type ledger struct {
	messages uint64
	bits     uint64
	byKind   []KindCount
}

// ensure grows the per-kind array to cover n kinds; called from
// RegisterHandler so charge can index unconditionally.
func (l *ledger) ensure(n int) {
	for len(l.byKind) < n {
		l.byKind = append(l.byKind, KindCount{})
	}
}

func (l *ledger) charge(kind KindID, bits int) {
	l.messages++
	l.bits += uint64(bits)
	kc := &l.byKind[kind]
	kc.Messages++
	kc.Bits += uint64(bits)
}

func (l *ledger) reset() {
	l.messages, l.bits = 0, 0
	for i := range l.byKind {
		l.byKind[i] = KindCount{}
	}
}

// snapshot renders the ledger as a public Counters value, resolving
// KindIDs back to names. Kinds with no traffic are omitted, matching the
// map-based ledger of old.
func (l *ledger) snapshot() Counters {
	out := Counters{
		Messages: l.messages,
		Bits:     l.bits,
		ByKind:   make(map[string]KindCount),
	}
	for id, kc := range l.byKind {
		if kc.Messages != 0 || kc.Bits != 0 {
			out.ByKind[KindID(id).String()] = kc
		}
	}
	return out
}

// Counters is the cost ledger of a run: total messages and bits, broken
// down by message kind. Time (rounds or virtual time) is read separately
// from Network.Now, since it is a property of the schedule, not the
// traffic.
type Counters struct {
	Messages uint64
	Bits     uint64
	ByKind   map[string]KindCount
}

// Sub returns the counters accumulated since the earlier snapshot.
func (c Counters) Sub(earlier Counters) Counters {
	out := Counters{
		Messages: c.Messages - earlier.Messages,
		Bits:     c.Bits - earlier.Bits,
		ByKind:   make(map[string]KindCount, len(c.ByKind)),
	}
	for k, v := range c.ByKind {
		e := earlier.ByKind[k]
		d := KindCount{Messages: v.Messages - e.Messages, Bits: v.Bits - e.Bits}
		if d.Messages != 0 || d.Bits != 0 {
			out.ByKind[k] = d
		}
	}
	return out
}

// String renders a sorted per-kind breakdown, largest message count first.
func (c Counters) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "messages=%d bits=%d", c.Messages, c.Bits)
	kinds := make([]string, 0, len(c.ByKind))
	for k := range c.ByKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool {
		ci, cj := c.ByKind[kinds[i]], c.ByKind[kinds[j]]
		if ci.Messages != cj.Messages {
			return ci.Messages > cj.Messages
		}
		return kinds[i] < kinds[j]
	})
	for _, k := range kinds {
		kc := c.ByKind[k]
		fmt.Fprintf(&b, "\n  %-18s msgs=%-10d bits=%d", k, kc.Messages, kc.Bits)
	}
	return b.String()
}
