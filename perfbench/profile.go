package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// repoPrefix marks the repository's own packages in profile symbols.
const repoPrefix = "edgereasoning/"

// cpuSamples is a CPU profile folded to what the per-layer metrics need.
type cpuSamples struct {
	total int64
	// byLayer counts samples by the innermost repository package on the
	// stack ("engine", "llm", ...), so standard-library work such as
	// math.Erf counts toward the layer that called it. Samples with no
	// repository frame (GC workers, the scheduler) count under "".
	byLayer map[string]int64
	// byLeaf counts samples by the function they were taken in.
	byLeaf map[string]int64
}

func (c *cpuSamples) share(layer string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.byLayer[layer]) / float64(c.total)
}

func (c *cpuSamples) leafShare(funcs ...string) float64 {
	if c.total == 0 {
		return 0
	}
	n := int64(0)
	for _, f := range funcs {
		n += c.byLeaf[f]
	}
	return float64(n) / float64(c.total)
}

// addProfile folds one gzipped pprof CPU profile, as runtime/pprof writes
// it, into c. It decodes only the profile.proto fields it needs: samples
// (location ids and sample count), locations (their line entries, the
// first being the innermost inlined function), functions (name) and the
// string table.
func (c *cpuSamples) addProfile(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var values []uint64
			err := eachField(msg, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendRepeated(s.locs, v, b)
				case 2:
					values = appendRepeated(values, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			err := eachField(msg, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = funcs
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
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
		case 6:
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return err
	}
	if c.byLayer == nil {
		c.byLayer, c.byLeaf = map[string]int64{}, map[string]int64{}
	}
	name := func(fn uint64) string {
		if i, ok := funcNames[fn]; ok && i >= 0 && i < int64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, s := range samples {
		c.total += s.count
		leafDone := false
		layer := ""
	stack:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				sym := name(fn)
				if !leafDone {
					c.byLeaf[sym] += s.count
					leafDone = true
				}
				if l, ok := repoLayer(sym); ok {
					layer = l
					break stack
				}
			}
		}
		c.byLayer[layer] += s.count
	}
	return nil
}

// repoLayer maps a symbol such as
// "edgereasoning/internal/engine.(*Engine).ServeSource.func3" to its
// repository package ("engine"); the benchmark itself maps to "perfbench".
func repoLayer(sym string) (string, bool) {
	if strings.HasPrefix(sym, "main.") {
		return "perfbench", true
	}
	if !strings.HasPrefix(sym, repoPrefix) {
		return "", false
	}
	path := strings.TrimPrefix(sym, repoPrefix)
	path = strings.TrimPrefix(path, "internal/")
	if i := strings.LastIndex(path, "/"); i >= 0 {
		path = path[i+1:]
	}
	if i := strings.Index(path, "."); i >= 0 {
		path = path[:i]
	}
	return path, true
}

// appendRepeated appends a repeated varint field that arrived either
// unpacked (v) or packed (b); runtime/pprof packs only runs longer than
// two.
func appendRepeated(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the fields of one protobuf message, passing varints as
// v and length-delimited fields as b (nil for varints). Fixed-width
// fields are skipped.
func eachField(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
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
			l, m := binary.Uvarint(buf)
			if m <= 0 || uint64(len(buf)-m) < l {
				return errTruncated
			}
			b = buf[m : m+int(l)]
			buf = buf[m+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}
