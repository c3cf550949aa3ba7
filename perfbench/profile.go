package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzipped
// protocol buffers in the profile.proto format) far enough to charge each
// sample's CPU time to the package of its innermost frame — the self time
// per package that the per-layer cpu_share metrics report. The module has
// no dependencies, so the few message fields needed are decoded by hand.

// selfTime is CPU nanoseconds per Go package path, plus the total.
type selfTime struct {
	byPkg map[string]int64
	total int64
}

// share returns the fraction of all sampled CPU time spent in packages
// whose path equals prefix or lies under it.
func (st selfTime) share(prefix string) float64 {
	if st.total == 0 {
		return 0
	}
	var n int64
	for pkg, v := range st.byPkg {
		if pkg == prefix || strings.HasPrefix(pkg, prefix+"/") {
			n += v
		}
	}
	return float64(n) / float64(st.total)
}

// seconds returns the sampled CPU seconds of the packages under prefix.
func (st selfTime) seconds(prefix string) float64 {
	return st.share(prefix) * float64(st.total) / 1e9
}

// parseCPUProfile decodes a runtime/pprof CPU profile and sums self time per
// package. The sample value used is the last one, which for CPU profiles is
// cpu nanoseconds.
func parseCPUProfile(data []byte) (selfTime, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return selfTime{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return selfTime{}, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples   []sample
		locFunc   = map[uint64]uint64{} // location id → innermost function id
		funcName  = map[uint64]int64{}  // function id → string table index
		strs      []string
		parseErrs error
	)
	sub := func(b []byte, fn func(num, wire int, v uint64, b []byte)) {
		if err := eachField(b, fn); err != nil && parseErrs == nil {
			parseErrs = err
		}
	}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) {
		switch num {
		case 2: // sample
			var s sample
			sub(b, func(num, wire int, v uint64, b []byte) {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.vals = append(s.vals, int64(x))
					}
				}
			})
			samples = append(samples, s)
		case 4: // location
			var id, fn uint64
			first := true
			sub(b, func(num, wire int, v uint64, b []byte) {
				switch num {
				case 1:
					id = v
				case 4: // line; the first one is the innermost inlined frame
					if first {
						sub(b, func(num, wire int, v uint64, _ []byte) {
							if num == 1 {
								fn = v
							}
						})
						first = false
					}
				}
			})
			locFunc[id] = fn
		case 5: // function
			var id uint64
			var name int64
			sub(b, func(num, wire int, v uint64, _ []byte) {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			})
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
	})
	if err != nil {
		return selfTime{}, err
	}
	if parseErrs != nil {
		return selfTime{}, parseErrs
	}
	st := selfTime{byPkg: map[string]int64{}}
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.vals) == 0 {
			continue
		}
		v := s.vals[len(s.vals)-1]
		name := ""
		if idx := funcName[locFunc[s.locs[0]]]; idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		st.byPkg[packageOf(name)] += v
		st.total += v
	}
	return st, nil
}

// packageOf returns the import path of a fully qualified Go function name:
// "dynaq/internal/sim.(*Simulator).Step" → "dynaq/internal/sim". Type
// parameters, which may themselves contain paths, are cut off first.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// eachField walks the fields of one protobuf message, handing varint
// fields their value and length-delimited fields their bytes.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte)) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			msg = msg[n:]
			fn(num, wire, v, nil)
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			fn(num, wire, binary.LittleEndian.Uint64(msg), nil)
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			fn(num, wire, 0, msg[n:n+int(l)])
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			fn(num, wire, uint64(binary.LittleEndian.Uint32(msg)), nil)
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
