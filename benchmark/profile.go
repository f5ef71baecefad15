package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// profileCPU runs fn under the runtime/pprof CPU profiler and returns the
// flat CPU share of each bucket in cpuBuckets, summing to 1 (all zero if
// the profiler took no sample). The profile goes to a temporary file that
// `go tool pprof -traces` reads.
func profileCPU(fn func()) (map[string]float64, error) {
	fh, err := os.CreateTemp("", "bench-cpu-*.pprof")
	if err != nil {
		return nil, err
	}
	defer os.Remove(fh.Name())
	if err := pprof.StartCPUProfile(fh); err != nil {
		fh.Close()
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	if err := fh.Close(); err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", "-symbolize=none", fh.Name())
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.Bytes())
	}
	return cpuShares(out)
}

// cpuShares buckets the flat time of `go tool pprof -traces -unit=ns`
// output by the package of each sample's leaf function. Each sample block
// ends in a dashed line; in it, header or label lines come first, then
// "<value>ns   <leaf>", then the callers one per line. A
// runtime.asyncPreempt leaf is charged to the frame it interrupted.
func cpuShares(traces []byte) (map[string]float64, error) {
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = 0
	}
	var total, v float64
	var frames []string // the current block's stack, leaf first
	flush := func() {
		if len(frames) > 0 {
			leaf := frames[0]
			if leaf == "runtime.asyncPreempt" && len(frames) > 1 {
				leaf = frames[1]
			}
			shares[bucket(leaf)] += v
			total += v
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(traces))
	for sc.Scan() {
		line := strings.TrimSuffix(strings.TrimSpace(sc.Text()), " (inline)")
		switch value, leaf, _ := strings.Cut(line, " "); {
		case strings.HasPrefix(line, "-----"):
			flush()
		case len(frames) > 0:
			frames = append(frames, line)
		case strings.HasSuffix(value, "ns"):
			if ns, err := strconv.ParseFloat(strings.TrimSuffix(value, "ns"), 64); err == nil {
				v, frames = ns, append(frames, strings.TrimSpace(leaf))
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if total > 0 {
		for b := range shares {
			shares[b] /= total
		}
	}
	return shares, nil
}

// bucket maps a profiled function name to its cpuBuckets entry.
func bucket(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // generic instantiation
		fn = fn[:i]
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	} else {
		return "runtime" // assembly stubs carry no package
	}
	if m, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		switch m {
		case "sim", "ftl", "controller", "bus", "flash", "host", "stats", "workload", "telemetry":
			return m
		case "mesh", "packet", "onfi": // interconnect wire models
			return "bus"
		case "exp", "runner":
			return "exp"
		}
		return "other"
	}
	switch {
	case pkg == "runtime", pkg == "sync", pkg == "sync/atomic",
		strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}
