package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// CPU-profile attribution. runtime/pprof writes a gzipped profile.proto;
// this is the small subset of that format the benchmark needs, decoded with
// the standard library only.

// cpuModules are the modules CPU samples are charged to, besides "runtime"
// (stacks with no scfs frame: GC workers, the scheduler), "bench" (the
// benchmark's own code and the facade) and "other" (the remaining
// scfs/internal packages).
var cpuModules = []string{
	"core", "cache", "storage", "depsky", "erasure", "gf256", "seccrypto", "stream",
	"fsmeta", "coord", "depspace", "smr", "cloudsim", "runtime", "bench", "other",
}

// moduleOf names the module a function belongs to, or "" for a function
// outside the scfs module.
func moduleOf(fn string) string {
	const internal = "scfs/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		mod := fn[len(internal):]
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		for _, m := range cpuModules {
			if m == mod {
				return m
			}
		}
		return "other"
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "scfs."):
		return "bench"
	}
	return ""
}

// cpuShares charges each sample of a profile to the innermost frame that
// belongs to the scfs module (standard-library frames go to their nearest
// scfs caller; a stack with no scfs frame goes to "runtime") and returns
// each module's share of the sampled CPU time.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		funcNames = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples   [][]uint64              // location ids, leaf first
		values    []int64                 // CPU nanoseconds (last value) per sample
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendPacked(locs, wire, v, b)
				case 2:
					for _, x := range appendPacked(nil, wire, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			var val int64
			if len(vals) > 0 {
				val = vals[len(vals)-1]
			}
			samples = append(samples, locs)
			values = append(values, val)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	totals := make(map[string]float64, len(cpuModules))
	var all float64
	for i, locs := range samples {
		mod := "runtime"
	stack:
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx < 0 || idx >= int64(len(strs)) {
					continue
				}
				if m := moduleOf(strs[idx]); m != "" {
					mod = m
					break stack
				}
			}
		}
		totals[mod] += float64(values[i])
		all += float64(values[i])
	}
	shares := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		if all > 0 {
			shares[m] = totals[m] / all
		} else {
			shares[m] = 0
		}
	}
	return shares, nil
}

var errProto = errors.New("malformed profile")

// fields walks the top-level fields of one protobuf message, calling fn with
// the field number, wire type, the varint value (wire type 0) or the bytes
// (wire type 2). Fixed-width fields are skipped.
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed (wire type 2) or not.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
