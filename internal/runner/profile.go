package runner

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles begins CPU profiling and/or arms a heap-profile dump for
// the CLIs' -cpuprofile/-memprofile flags (either path may be empty). It
// fails only when the CPU profile cannot start. The returned stop must
// run before exit: it finishes the CPU profile and writes the heap
// snapshot, reporting a heap-profile failure on stderr.
func StartProfiles(cpuPath, memPath string) (stop func(), err error) {
	stopCPU := func() {}
	if cpuPath != "" {
		fh, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(fh); err != nil {
			fh.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		stopCPU = func() { pprof.StopCPUProfile(); fh.Close() }
	}
	return func() {
		stopCPU()
		if memPath == "" {
			return
		}
		fh, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			return
		}
		defer fh.Close()
		runtime.GC() // materialize only live allocations in the snapshot
		if err := pprof.WriteHeapProfile(fh); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		}
	}, nil
}
