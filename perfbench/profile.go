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

// cpuBuckets are the cpu.* shares the traced run reports. Every CPU
// profile sample lands in exactly one, so the shares sum to 1.
var cpuBuckets = []string{
	"cpu.sim", "cpu.handoff", "cpu.pfs", "cpu.disk", "cpu.mesh", "cpu.cache",
	"cpu.pablo", "cpu.gc", "cpu.policy", "cpu.experiments", "cpu.server",
	"cpu.json", "cpu.net_http", "cpu.other",
}

// layerPkgs maps a package path to its bucket.
var layerPkgs = map[string]string{
	"paragonio/internal/sim":            "cpu.sim",
	"paragonio/internal/pfs":            "cpu.pfs",
	"paragonio/internal/disk":           "cpu.disk",
	"paragonio/internal/mesh":           "cpu.mesh",
	"paragonio/internal/cache":          "cpu.cache",
	"paragonio/internal/pablo":          "cpu.pablo",
	"paragonio/internal/policy":         "cpu.policy",
	"paragonio/internal/experiments":    "cpu.experiments",
	"paragonio/internal/server":         "cpu.server",
	"paragonio/internal/server/metrics": "cpu.server",
	"encoding/json":                     "cpu.json",
}

// layerOf returns the bucket of a non-utility package: its layer, the
// network stack (net, net/*, and the vendored x/net the standard
// library's HTTP uses), or cpu.other.
func layerOf(pkg string) string {
	if b, ok := layerPkgs[pkg]; ok {
		return b
	}
	if pkg == "net" || strings.HasPrefix(pkg, "net/") || strings.HasPrefix(pkg, "vendor/golang.org/x/net/") {
		return "cpu.net_http"
	}
	return "cpu.other"
}

// handoffFuncs are the runtime's channel, park/ready and scheduler
// entry points: the cost of handing control between goroutines, which
// is how the simulation kernel switches processes.
var handoffFuncs = map[string]bool{
	"chansend": true, "chansend1": true, "chanrecv": true, "chanrecv1": true,
	"chanrecv2": true, "selectgo": true, "closechan": true, "send": true,
	"recv": true, "sendDirect": true, "recvDirect": true, "gopark": true,
	"goparkunlock": true, "goready": true, "ready": true, "park_m": true,
	"schedule": true, "findRunnable": true, "execute": true, "mcall": true,
	"gosched_m": true, "goschedImpl": true, "goexit0": true, "stopm": true,
	"startm": true, "wakep": true, "runqgrab": true, "runqsteal": true,
	"stealWork": true, "futexsleep": true, "futexwakeup": true,
	"notesleep": true, "notewakeup": true, "semacquire1": true,
	"semrelease1": true, "resetspinning": true, "casgstatus": true,
}

// gcFuncPrefixes mark a sample as garbage-collector work wherever they
// appear on its stack (background marking, assists, sweeping, barriers).
var gcFuncPrefixes = []string{
	"runtime.gc", "gcWriteBarrier", "runtime.markroot", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.sweepone", "runtime.wbBufFlush", "runtime.scanobject",
}

// funcPackage returns the import path of a fully qualified function
// name such as "paragonio/internal/sim.(*Kernel).Run". Names with no
// package qualifier are the runtime's assembly routines
// ("memeqbody").
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation brackets hold other paths
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return "runtime"
}

// transparent packages are utilities a layer calls into; a sample whose
// leaf sits in one is charged to the nearest caller outside them.
func transparent(pkg string) bool {
	switch pkg {
	case "runtime", "sync", "sync/atomic", "reflect", "strconv", "bytes",
		"strings", "sort", "slices", "maps", "fmt", "os", "io", "bufio",
		"syscall", "time", "errors", "unicode", "unicode/utf8", "math",
		"math/bits", "container/list", "container/heap", "hash/fnv",
		"path/filepath", "regexp", "regexp/syntax", "context":
		return true
	}
	return strings.HasPrefix(pkg, "internal/") || strings.HasPrefix(pkg, "runtime/")
}

// bucketOf assigns one sample, given its stack leaf first, to a cpu.*
// bucket: GC work anywhere on the stack is cpu.gc; a runtime handoff
// function at the leaf end of the stack is cpu.handoff; otherwise the
// sample belongs to the layer of its leaf frame, looking through
// transparent utility packages to the nearest caller.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		for _, p := range gcFuncPrefixes {
			if strings.HasPrefix(fn, p) {
				return "cpu.gc"
			}
		}
	}
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if pkg == "runtime" && handoffFuncs[strings.TrimPrefix(fn, "runtime.")] {
			return "cpu.handoff"
		}
		if !transparent(pkg) {
			return layerOf(pkg)
		}
	}
	return "cpu.other"
}

// cpuShares decodes a gzipped pprof CPU profile and returns each
// bucket's share of samples, plus the sample count.
func cpuShares(gz []byte) (map[string]float64, int64, error) {
	stacks, err := parseProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range stacks {
		counts[bucketOf(s.frames)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		if total > 0 {
			shares[b] = float64(counts[b]) / float64(total)
		} else {
			shares[b] = 0
		}
	}
	return shares, total, nil
}

// sampleStack is one profile sample: its function names leaf first and
// its sample count.
type sampleStack struct {
	frames []string
	count  int64
}

// parseProfile decodes the subset of the pprof protobuf schema
// (github.com/google/pprof/proto/profile.proto) that stack attribution
// needs: samples, locations, functions and the string table.
func parseProfile(gz []byte) ([]sampleStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id → function ids, leaf first
		fnName  = map[uint64]int64{}    // function id → string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			first := true
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUvarints(s.locs, wire, v, b)
				case 2:
					vals := appendUvarints(nil, wire, v, b)
					if first && len(vals) > 0 {
						s.count = int64(vals[0])
						first = false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sampleStack, 0, len(samples))
	for _, s := range samples {
		st := sampleStack{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("pprof: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its varint value or its payload bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
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
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendUvarints appends a repeated integer field's values, packed
// (wire type 2) or not.
func appendUvarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
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
