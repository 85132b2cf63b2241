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

// cpuBuckets are the layers a CPU sample can be charged to. A sample
// goes to the innermost repro/internal/<pkg> frame on its stack; GC
// background workers go to gc, stacks with no simulator frame (the
// scheduler, the benchmark itself) to runtime, and the simulator's
// remaining packages (archive, cluster, ilm, mpi, sched, synthetic, …)
// to other.
var cpuBuckets = []string{
	"vfs", "pfs", "simtime", "fabric", "pftool", "hsm", "tsm", "tape",
	"metadb", "telemetry", "workload", "gc", "runtime", "other",
}

const internalPrefix = "repro/internal/"

// pkgShare is one package's share of the profiled CPU time.
type pkgShare struct {
	name  string
	share float64
}

// cpuShares decodes gzipped pprof CPU profiles and returns each
// bucket's share of their CPU time, plus the share of every package
// seen (buckets before lumping into other), largest first.
func cpuShares(profiles [][]byte) (map[string]float64, []pkgShare, error) {
	byPkg := map[string]float64{}
	var total float64
	for _, raw := range profiles {
		p, err := parseProfile(raw)
		if err != nil {
			return nil, nil, fmt.Errorf("CPU profile: %w", err)
		}
		for _, s := range p.samples {
			byPkg[p.attribute(s.locs)] += float64(s.value)
			total += float64(s.value)
		}
	}
	if total == 0 {
		return nil, nil, errors.New("CPU profile holds no samples")
	}
	known := map[string]bool{}
	for _, b := range cpuBuckets {
		known[b] = true
	}
	shares := map[string]float64{}
	var list []pkgShare
	for pkg, v := range byPkg {
		list = append(list, pkgShare{pkg, v / total})
		if known[pkg] {
			shares[pkg] += v / total
		} else {
			shares["other"] += v / total
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].share != list[j].share {
			return list[i].share > list[j].share
		}
		return list[i].name < list[j].name
	})
	return shares, list, nil
}

// profile is the part of a pprof profile.proto the attribution needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value: CPU nanoseconds
}

// attribute names the bucket a stack is charged to.
func (p *profile) attribute(locs []uint64) string {
	var frames []string
	for _, l := range locs {
		for _, fn := range p.locations[l] {
			if i := p.functions[fn]; i >= 0 && int(i) < len(p.strings) {
				frames = append(frames, p.strings[i])
			}
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") {
			return "gc"
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			if end := strings.IndexAny(rest, "./"); end > 0 {
				return rest[:end]
			}
			return rest
		}
	}
	return "runtime"
}

// parseProfile decodes the fields of a gzipped profile.proto that
// attribution reads: samples, locations with their inlined lines,
// functions and the string table.
func parseProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = fields(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s profSample
			var values []uint64
			if err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendRepeated(s.locs, wire, v, b)
				case 2:
					values = appendRepeated(values, wire, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = int64(values[len(values)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // Function
			var id uint64
			name := int64(-1)
			if err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// fields walks the protobuf fields of msg, handing each to fn: varints
// and fixed-width values in v, length-delimited ones in b.
func fields(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(msg) < size {
				return errTruncated
			}
			var word [8]byte
			copy(word[:], msg[:size])
			v = binary.LittleEndian.Uint64(word[:])
			msg = msg[size:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendRepeated appends a repeated integer field given either packed
// (wire type 2) or one value at a time.
func appendRepeated(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
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
