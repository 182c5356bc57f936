package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// cpuProfile is the part of a runtime/pprof CPU profile the benchmark
// reads: self CPU time per leaf function, restricted to the samples that
// carry one value of the "layer" label.
type cpuProfile struct {
	Total  int64            // nanoseconds in the selected samples
	ByFunc map[string]int64 // leaf function -> self nanoseconds
}

// parseCPUProfile decodes a gzipped profile.proto (the subset runtime/pprof
// writes) and keeps the samples labelled layer=want.
func parseCPUProfile(gz []byte, want string) (cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return cpuProfile{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return cpuProfile{}, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // (key, str) string-table indices
	}
	var (
		samples []sample
		strs    []string
		locFunc = map[uint64]uint64{} // location -> leaf function id
		funName = map[uint64]int64{}  // function id -> name index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, u := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(u))
					}
				case 3:
					var key, str int64
					if err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
						switch num {
						case 1:
							key = int64(v)
						case 2:
							str = int64(v)
						}
						return nil
					}); err != nil {
						return err
					}
					s.labels = append(s.labels, [2]int64{key, str})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			first := true
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if first {
						first = false
						return eachField(b, func(num, _ int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return cpuProfile{}, err
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := cpuProfile{ByFunc: make(map[string]int64)}
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		match := false
		for _, l := range s.labels {
			if str(l[0]) == "layer" && str(l[1]) == want {
				match = true
			}
		}
		if !match {
			continue
		}
		ns := s.values[len(s.values)-1] // [samples/count, cpu/nanoseconds]
		p.Total += ns
		p.ByFunc[str(funName[locFunc[s.locs[0]]])] += ns
	}
	return p, nil
}

// pkgOf maps a function symbol to the short name of its package: the
// repository's packages by their last path element, the Go runtime (and
// its internal helpers) as "runtime", anything else as "other".
func pkgOf(fn string) string {
	path := fn
	slash := strings.LastIndexByte(path, '/')
	if dot := strings.IndexByte(path[slash+1:], '.'); dot >= 0 {
		path = path[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(path, "kkt/internal/"):
		return strings.TrimPrefix(path, "kkt/internal/")
	case path == "runtime" || strings.HasPrefix(path, "internal/runtime/"):
		return "runtime"
	case path == "main":
		return "kktbench"
	}
	return "other"
}

// share returns the fraction of selected CPU time spent in functions
// for which keep returns true.
func (p cpuProfile) share(keep func(fn string) bool) float64 {
	if p.Total == 0 {
		return 0
	}
	var ns int64
	for fn, v := range p.ByFunc {
		if keep(fn) {
			ns += v
		}
	}
	return float64(ns) / float64(p.Total)
}

// top returns the k functions with the most self time, largest first.
func (p cpuProfile) top(k int) []string {
	fns := make([]string, 0, len(p.ByFunc))
	for fn := range p.ByFunc {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool {
		if p.ByFunc[fns[i]] != p.ByFunc[fns[j]] {
			return p.ByFunc[fns[i]] > p.ByFunc[fns[j]]
		}
		return fns[i] < fns[j]
	})
	if len(fns) > k {
		fns = fns[:k]
	}
	return fns
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the top-level fields of one protobuf message. Varint
// fields arrive in v, length-delimited ones in b; fixed-width fields are
// skipped.
func eachField(buf []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var (
			v uint64
			b []byte
		)
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that may be packed
// (wire type 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
