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

// layers are the modules a CPU sample can be attributed to, in the order
// they are reported. runtime collects samples with no repo frame.
var layers = []string{"core", "hio", "kernel", "fs", "bufpool", "vclock", "disk",
	"httpd", "loadgen", "tcp", "netsim", "timerwheel", "runtime"}

// layerOf maps a function name from a profile to its layer, or "" when
// the function is not in a layer (the Go runtime, the standard library,
// and repo packages that are not layers, such as stats and iovec). The
// file system lives in package kernel but is its own layer; the
// benchmark's client code counts as load generation.
func layerOf(fn string) string {
	const repo = "hybrid/internal/"
	if strings.HasPrefix(fn, "main.load") {
		return "loadgen"
	}
	rest, ok := strings.CutPrefix(fn, repo)
	if !ok {
		return ""
	}
	pkg, sym, _ := strings.Cut(rest, ".")
	if pkg == "kernel" && (strings.HasPrefix(sym, "(*FS)") || strings.HasPrefix(sym, "(*File)") ||
		strings.HasPrefix(sym, "PatternByte")) {
		return "fs"
	}
	for _, l := range layers[:len(layers)-1] {
		if l == pkg {
			return l
		}
	}
	return ""
}

// attribute decodes a gzipped CPU profile and adds each sample's count to
// the layer of its innermost layer frame.
func attribute(prof []byte, samples map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		stacks    [][]uint64              // per sample: location ids, leaf first
		stackHits []int64
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs []uint64
			var count int64
			seenValue := false
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendPacked(locs, v, b)
				case 2:
					if vals := appendPacked(nil, v, b); len(vals) > 0 && !seenValue {
						count, seenValue = int64(vals[0]), true
					}
				}
				return nil
			})
			stacks = append(stacks, locs)
			stackHits = append(stackHits, count)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, locs := range stacks {
		layer := "runtime"
	walk:
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx >= 0 && idx < int64(len(strs)) {
					if l := layerOf(strs[idx]); l != "" {
						layer = l
						break walk
					}
				}
			}
		}
		samples[layer] += stackHits[i]
	}
	return nil
}

// fields walks the protocol-buffer fields of msg, passing each field's
// number with its varint value or its length-delimited bytes.
func fields(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errMalformed
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errMalformed
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errMalformed
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errMalformed
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errMalformed
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return errMalformed
		}
		if err := f(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

var errMalformed = errors.New("profile: malformed protocol buffer")

// appendPacked appends a repeated varint field that arrived either as one
// value (v, b == nil) or packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}
