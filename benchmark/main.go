// Command benchmark measures the simulator's host time: how long the
// simulator itself takes, end to end and layer by layer, on four fixed
// workloads (see README.md). It calls only the public APIs of the
// simulator's internal packages.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash benchmark/run.sh                      # suite: verification, 5 timed repeats per workload, traced run
//	bash benchmark/run.sh -compare old.json new.json
//	bash benchmark/run.sh --workload spgc-omnibus --seed 3 --seconds 10 --trace 0
//
// With --workload it makes one run of one workload and ends with a JSON
// result line; --trace 1 makes that the traced run, which reports the
// per-layer metrics instead of the end-to-end ones. Without it, it runs the
// suite: every (workload, repeat) in a fresh child process, one at a time,
// interleaved round-robin, and reports each metric's median and quartiles.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/runner"
)

var stderr io.Writer = os.Stderr

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

type options struct {
	workload      string
	seed          int64
	seconds       float64
	trace         int
	out, traceOut string
	compare       bool
	child         string
}

// runSeconds is how long one --workload run measures by default,
// BENCHMARK.json's run_seconds.
const runSeconds = 10

// suiteRepeats is how many timed repeats the suite makes per workload.
const suiteRepeats = 5

func run(args []string, stdout io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "make one run of this workload (default: the whole suite)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "with -workload: measure units for at least this many seconds")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 1 makes the run the traced run, reporting per-layer metrics")
	fs.StringVar(&o.out, "out", "bench-result.json", "suite: result file")
	fs.StringVar(&o.traceOut, "trace-out", "bench-trace.json", "traced runs: span file (Chrome trace JSON); empty writes none")
	fs.BoolVar(&o.compare, "compare", false, "compare two suite result files given as arguments: old new")
	fs.StringVar(&o.child, "child", "", "internal: run one suite child (timed, verify or traced) and print its full result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner.SetDefault(sweepParallel)
	var err error
	switch {
	case o.compare:
		if fs.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files")
			break
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected arguments %v", fs.Args())
	case o.child != "":
		err = runChild(o, stdout)
	case o.workload != "":
		err = runOne(o, stdout)
	default:
		return runSuite(o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runOne makes one run of one workload: a timed run (the end-to-end
// metrics) followed by a checked unit at a quarter size, or with -trace 1
// the traced run (the per-layer metrics). It prints every metric as a
// "workload metric value unit" line and ends with the result as JSON.
func runOne(o options, stdout io.Writer) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	n := w.requests
	var res result
	var declared []decl
	switch o.trace {
	case 0:
		res = measure(w, o.seed, n, inputsPerRun, 1, o.seconds)
		res.record(w.verify(o.seed, max(n/4, 1)))
		warnDigest(w, o.seed, res.Digest)
		declared = endToEnd
	case 1:
		res = tracedRun(w, o.seed, n)
		if err := writeSpans(o.traceOut, [][]span{res.Spans}); err != nil {
			return err
		}
		declared = perLayer
	default:
		return fmt.Errorf("-trace must be 0 or 1, not %d", o.trace)
	}
	printLines(stdout, w.name, res.Metrics)
	res.Metrics = only(res.Metrics, declared)
	res.Digest, res.Spans = "", nil
	return printResult(stdout, res)
}

// runChild runs one suite step in this process and prints its full result
// (digest and spans included) for the parent.
func runChild(o options, stdout io.Writer) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	n := w.requests
	var res result
	switch o.child {
	case "timed":
		res = measure(w, o.seed, n, 1, 1, 0)
	case "verify":
		res = result{Correct: true, Metrics: map[string]metric{}}
		res.record(w.verify(o.seed, n))
	case "traced":
		res = tracedRun(w, o.seed, n)
	default:
		return fmt.Errorf("unknown child step %q", o.child)
	}
	return printResult(stdout, res)
}

func printResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func writeSpans(path string, runs [][]span) error {
	if path == "" {
		return nil
	}
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(fh, runs); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
