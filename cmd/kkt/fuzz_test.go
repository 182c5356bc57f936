package main

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"kkt/internal/faultplan"
)

// FuzzParseLadder: parseLadder never panics, and every ladder it accepts
// holds only positive sizes; a lo:hi:rungs ladder has exactly rungs
// strictly increasing sizes from lo to hi. The seed corpus under
// testdata/fuzz/FuzzParseLadder holds the ladders CI, the Makefile and the
// docs use, plus the overflow and duplicate-rung shapes.
func FuzzParseLadder(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		got, err := parseLadder(s)
		if err != nil {
			return
		}
		if len(got) == 0 {
			t.Fatalf("parseLadder(%q) accepted an empty ladder", s)
		}
		for _, n := range got {
			if n <= 0 {
				t.Fatalf("parseLadder(%q) = %v: non-positive size", s, got)
			}
		}
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return
		}
		lo, _ := parseSize(parts[0])
		hi, _ := parseSize(parts[1])
		rungs, _ := strconv.Atoi(parts[2])
		if len(got) != rungs || got[0] != lo || got[len(got)-1] != hi {
			t.Fatalf("parseLadder(%q) = %v, want %d rungs from %d to %d", s, got, rungs, lo, hi)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("parseLadder(%q) = %v: not strictly increasing", s, got)
			}
		}
	})
}

// churnKeys lists every --churn stage key with the plan field it sets.
func churnKeys(p *faultplan.Plan) []struct {
	key string
	v   *int
} {
	return []struct {
		key string
		v   *int
	}{
		{"partitions", &p.Partitions},
		{"partition-size", &p.PartitionSize},
		{"bursts", &p.Bursts},
		{"burst-radius", &p.BurstRadius},
		{"bridge-deletes", &p.BridgeDeletes},
		{"tree-deletes", &p.TreeEdgeDeletes},
		{"hub-deletes", &p.HubDeletes},
		{"deletes", &p.Deletes},
		{"inserts", &p.Inserts},
		{"weight-changes", &p.WeightChanges},
		{"heals", &p.Heals},
	}
}

// FuzzParseChurn: parseChurn never panics, every count it accepts is
// non-negative, and an accepted plan printed back as a full k=v list
// parses to the same plan.
func FuzzParseChurn(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		p, err := parseChurn(s)
		if err != nil {
			return
		}
		var kvs []string
		for _, kv := range churnKeys(&p) {
			if *kv.v < 0 {
				t.Fatalf("parseChurn(%q): %s = %d", s, kv.key, *kv.v)
			}
			kvs = append(kvs, fmt.Sprintf("%s=%d", kv.key, *kv.v))
		}
		again, err := parseChurn(strings.Join(kvs, ","))
		if err != nil {
			t.Fatalf("parseChurn(%q) round trip: %v", s, err)
		}
		if !reflect.DeepEqual(again, p) {
			t.Fatalf("parseChurn(%q) round trip: %+v, want %+v", s, again, p)
		}
	})
}
