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

// shareLayers are the buckets a CPU profile's self time folds into: the
// simulator's packages by name, math/rand, the Go runtime, and "other"
// for everything else (the rest of the standard library, this
// benchmark's own wrappers).
var shareLayers = []string{
	"mutator", "mem", "objmodel", "heap", "gc", "collectors", "core", "vmm",
	"sim", "fault", "workload", "heappolicy", "trace", "math_rand", "runtime", "other",
}

// layerOf maps a profiled function name to its share bucket by the
// package of the function.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: its arguments name other packages
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "bookmarkgc/internal/"):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "bookmarkgc/internal/"), "/")
		for _, l := range shareLayers {
			if l == name {
				return l
			}
		}
	case pkg == "math/rand":
		return "math_rand"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// foldProfile reads a gzipped pprof CPU profile and returns the share
// of sampled CPU time whose leaf frame (innermost, inlining included)
// falls in each layer, plus the total sampled seconds.
func foldProfile(data []byte) (map[string]float64, float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}  // function id -> string index
		locLeaf   = map[uint64]uint64{} // location id -> innermost function id
		samples   [][2]uint64           // leaf location id, cpu nanoseconds
		valueSlot = 1                   // CPU profiles carry [samples, nanoseconds]
	)
	err = eachField(raw, func(tag int, v uint64, b []byte) error {
		switch tag {
		case 2: // Sample
			var locs, vals []uint64
			err := eachField(b, func(tag int, v uint64, b []byte) error {
				switch tag {
				case 1:
					locs = appendUints(locs, v, b)
				case 2:
					vals = appendUints(vals, v, b)
				}
				return nil
			})
			if err != nil || len(locs) == 0 || len(vals) <= valueSlot {
				return err
			}
			samples = append(samples, [2]uint64{locs[0], vals[valueSlot]})
		case 4: // Location
			var id, fn uint64
			seenLine := false
			err := eachField(b, func(tag int, v uint64, b []byte) error {
				switch tag {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined call
					if !seenLine {
						seenLine = true
						return eachField(b, func(tag int, v uint64, _ []byte) error {
							if tag == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLeaf[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(tag int, v uint64, _ []byte) error {
				switch tag {
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
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]float64{}
	var total float64
	for _, s := range samples {
		name := ""
		if fn, ok := locLeaf[s[0]]; ok {
			if i, ok := funcName[fn]; ok && i >= 0 && int(i) < len(strs) {
				name = strs[i]
			}
		}
		ns := float64(s[1])
		byLayer[layerOf(name)] += ns
		total += ns
	}
	shares := map[string]float64{}
	for _, l := range shareLayers {
		if total > 0 {
			shares[l] = byLayer[l] / total
		} else {
			shares[l] = 0
		}
	}
	return shares, total / 1e9, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(tag int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		tag, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(tag, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, packed (data) or not (v).
func appendUints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
