package bench

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the simulator layers host time is attributed to: the
// internal packages on the simulation path, in data-flow order, then
// "runtime" for samples with no layer frame on the stack (scheduler,
// collector and profiler work of the simulating goroutine).
var layers = []string{
	"trace", "cpu", "cache", "tlb", "pagetable", "osmodel", "core",
	"mtl", "phys", "dram", "enigma", "system", "runtime",
}

// setupLayers are the layers whose share of constructor time is reported:
// the ones machine construction and prefill run through.
var setupLayers = []string{"phys", "pagetable", "osmodel", "mtl", "system", "runtime"}

// profileSample is one decoded CPU-profile sample.
type profileSample struct {
	// phase is the sample's "phase" label: "setup", "step", or empty for
	// samples taken outside a labelled call.
	phase string
	cpuNs int64
	// frames are function names, innermost first, with inlined calls
	// expanded in place.
	frames []string
}

// layerOf attributes a stack to the innermost frame of a layer package.
// Frames of other internal packages (addr, stats, ...) are helpers and
// count toward the layer that called them; a stack with no layer frame
// is runtime.
func layerOf(frames []string) string {
	for _, f := range frames {
		rest, ok := strings.CutPrefix(f, "vbi/internal/")
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, l := range layers[:len(layers)-1] {
			if rest == l {
				return l
			}
		}
	}
	return "runtime"
}

// Profile message field numbers (github.com/google/pprof/proto/profile.proto).
const (
	fieldSampleType = 1
	fieldSample     = 2
	fieldLocation   = 4
	fieldFunction   = 5
	fieldStrings    = 6
)

// decodeCPUProfile decodes a gzipped pprof CPU profile as written by
// runtime/pprof.
func decodeCPUProfile(gz []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("bench: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("bench: profile: %w", err)
	}
	var (
		strs        []string
		sampleTypes []uint64 // string index of each value's type
		samples     [][]byte
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames   = map[uint64]uint64{}   // function id -> string index
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fieldSampleType:
			return fields(b, func(num int, _ int, v uint64, _ []byte) error {
				if num == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case fieldSample:
			samples = append(samples, b)
		case fieldLocation:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, _ int, v uint64, _ []byte) error {
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
		case fieldFunction:
			var id, name uint64
			err := fields(b, func(num int, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case fieldStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("bench: profile has no cpu sample type")
	}

	out := make([]profileSample, 0, len(samples))
	for _, sb := range samples {
		var locs, values []uint64
		var s profileSample
		err := fields(sb, func(num int, wire int, v uint64, b []byte) error {
			var err error
			switch num {
			case 1:
				locs, err = appendUints(locs, wire, v, b)
			case 2:
				values, err = appendUints(values, wire, v, b)
			case 3: // Label
				var key, val uint64
				err = fields(b, func(num int, _ int, v uint64, _ []byte) error {
					switch num {
					case 1:
						key = v
					case 2:
						val = v
					}
					return nil
				})
				if str(key) == "phase" {
					s.phase = str(val)
				}
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		if cpu >= len(values) {
			return nil, errors.New("bench: profile sample is missing its cpu value")
		}
		s.cpuNs = int64(values[cpu])
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				s.frames = append(s.frames, str(funcNames[f]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// fields calls f for each field of a protobuf message: v holds varint and
// fixed-width values, b the payload of length-delimited ones.
func fields(buf []byte, f func(num int, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("bench: profile: bad field key")
		}
		buf = buf[n:]
		var v uint64
		var b []byte
		switch wire := int(key & 7); wire {
		case 0:
			if v, n = binary.Uvarint(buf); n <= 0 {
				return errors.New("bench: profile: bad varint")
			}
			buf = buf[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(buf) < w {
				return errors.New("bench: profile: truncated fixed field")
			}
			buf = buf[w:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || l > uint64(len(buf)-n) {
				return errors.New("bench: profile: bad length")
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		default:
			return fmt.Errorf("bench: profile: unsupported wire type %d", wire)
		}
		if err := f(int(key>>3), int(key&7), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bench: profile: bad packed varint")
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
