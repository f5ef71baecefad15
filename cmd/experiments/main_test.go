package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/exp"
	"repro/internal/report"
)

// tinyOpts shrinks runs far below -quick and attaches the invariant
// checker, so header tests double as a checked smoke pass of the CLI's
// table plumbing.
func tinyOpts() exp.Options {
	opt := exp.Quick()
	opt.Cfg.Check = &check.Config{}
	opt.TraceRequests = 150
	opt.SyntheticRequests = 30
	opt.Traces = []string{"rocksdb-0"}
	return opt
}

// collect runs one figure renderer and returns the first CSV line (the
// column headers) of every table it emits.
func collect(fn func(exp.Options, func(*report.Table)), opt exp.Options) []string {
	var heads []string
	fn(opt, func(t *report.Table) {
		heads = append(heads, strings.SplitN(t.CSV(), "\n", 2)[0])
	})
	return heads
}

// Downstream scripts parse the -csv output by column name; renaming or
// reordering a column is a breaking change this test makes explicit.
func TestCSVHeaderStability(t *testing.T) {
	opt := tinyOpts()
	cases := []struct {
		name string
		run  func(exp.Options, func(*report.Table))
		want []string
	}{
		{"contention", figContention, []string{
			"architecture,mean latency,h mean wait,worst wait,v mean wait,busiest util",
		}},
		{"fig4", fig4, []string{
			"trace,1.25x,1.5x,2.0x",
		}},
		{"fig14and15", fig14and15, []string{
			"trace,baseSSD,NoSSD(pin-constraint),NoSSD(no constraint),pSSD,pnSSD,pnSSD(+split)",
			"trace,baseSSD,NoSSD(pin-constraint),NoSSD(no constraint),pSSD,pnSSD,pnSSD(+split)",
		}},
		{"fig20a", fig20a, []string{
			"config,p50,p90,p99,p99.9,max",
		}},
		{"fig20b", fig20b, []string{
			"config,mean GC round,rounds,pages copied",
		}},
		{"table2", table2, []string{
			"parameter,value",
		}},
		{"tenant", figTenant, []string{
			"config,tenant,mean,p50,p95,p99,p99.9,KIOPS,SLO misses",
		}},
		{"fmmu", figFmmu, []string{
			"mapping,skew,mean,p99,KIOPS,map lookups,map misses,miss rate,fetches,writebacks",
		}},
		{"sweep", func(o exp.Options, e func(*report.Table)) { runSweeps("busrate", o, e) }, []string{
			"param,arch,pattern,x,mean_us,p99_us,kiops",
		}},
		{"rebuildrate", func(o exp.Options, e func(*report.Table)) { runSweeps("rebuildrate", o, e) }, []string{
			"param,arch,workload,rate_pps,mean_us,p99_us,kiops,rebuild_ms,degraded_reads,failed_reads",
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := collect(c.run, opt)
			if len(got) != len(c.want) {
				t.Fatalf("%d tables emitted, want %d: %q", len(got), len(c.want), got)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Errorf("table %d header\n got: %s\nwant: %s", i, got[i], c.want[i])
				}
			}
		})
	}
}

// TestMain lets a test run this test binary as the experiments command:
// with EXPERIMENTS_ARGS set, the process is main() on those arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("EXPERIMENTS_ARGS"); ok {
		os.Args = append([]string{"experiments"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Bad selector values exit with status 2 and a message before any run,
// so nothing reaches stdout.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range []string{
		"-sweep bogus",
		"-sweep bogus -quick -csv",
		"-requests -1",
		"-ablation bogus",
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "EXPERIMENTS_ARGS="+args)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("experiments %s: err = %v, want exit status 2", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("experiments %s printed to stdout: %q", args, stdout.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("experiments %s exited without a message", args)
		}
	}
}
