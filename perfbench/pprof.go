package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// sharePackages are the packages host_share.* reports, in output order.
// Simulator packages are named by their directory under internal/;
// runtime covers the Go runtime and its internal packages, perfbench is
// this benchmark, other is everything else.
var sharePackages = []string{
	"sched", "prog", "ds", "workload", "core", "reclaim", "mem", "alloc",
	"metrics", "word", "rng", "bench", "explore", "runtime", "perfbench", "other",
}

// measuredLabel is the pprof label key marking measured sections; samples
// without it (the benchmark's own hygiene between units, the collector's
// background workers) are left out of the shares.
const measuredLabel = "perfbench_measured"

// profilePass runs one untraced pass of w under the CPU profiler and
// returns each package's share of the CPU time sampled in measured
// sections, attributed to the innermost (leaf) function of every sample.
func profilePass(w workloadSpec, seed uint64, r *refs, t *tally) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	e := e2e{profiling: true}
	e.startPass()
	for _, u := range w.units(seed) {
		t.check(u, runE2EUnit(&e, r, u))
	}
	pprof.StopCPUProfile()
	return packageShares(buf.Bytes())
}

// packageOf maps a symbol name to its sharePackages entry.
func packageOf(fn string) string {
	const internal = "stacktrack/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		p := fn[len(internal):]
		if i := strings.IndexAny(p, "/."); i >= 0 {
			p = p[:i]
		}
		for _, s := range sharePackages {
			if s == p {
				return p
			}
		}
		return "other"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/"):
		return "runtime"
	case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "stacktrack/perfbench."):
		return "perfbench" // the symbol prefix of a main package under go test
	}
	return "other"
}

// packageShares decodes a gzipped profile.proto CPU profile (the subset
// of the format the share computation needs) and sums the last value
// (CPU nanoseconds) of every sample labeled measuredLabel by the leaf
// function's package.
func packageShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		loc      uint64
		value    int64
		labelKey int64 // string index of the last label key
	}
	var (
		samples  []sample
		leafFunc = map[uint64]uint64{} // location id -> leaf function id
		funcName = map[uint64]int64{}  // function id -> string index
		strs     []string
	)
	err = pbFields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var s sample
			var locs []uint64
			var vals []int64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = pbRepeated(locs, v, b)
				case 2:
					for _, x := range pbRepeated(nil, v, b) {
						vals = append(vals, int64(x))
					}
				case 3: // Label
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							s.labelKey = int64(v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil || len(locs) == 0 || len(vals) == 0 {
				return err
			}
			s.loc, s.value = locs[0], vals[len(vals)-1]
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			first := true
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if first {
						first = false
						return pbFields(b, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			leafFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		if s.labelKey <= 0 || int(s.labelKey) >= len(strs) || strs[s.labelKey] != measuredLabel {
			continue
		}
		pkg := "other"
		if i := funcName[leafFunc[s.loc]]; i >= 0 && int(i) < len(strs) {
			pkg = packageOf(strs[i])
		}
		shares[pkg] += float64(s.value)
		total += float64(s.value)
	}
	if total == 0 {
		return nil, fmt.Errorf("profile: no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// pbFields walks the fields of one protobuf message, calling f with the
// field number and either the varint value or the length-delimited bytes.
func pbFields(b []byte, f func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = pbVarint(b); n == 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := f(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated appends a repeated varint field's values, packed (b non-nil)
// or not.
func pbRepeated(out []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(out, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
