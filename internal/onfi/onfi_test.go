package onfi

import (
	"testing"

	"repro/internal/sim"
)

// TestPinCounts sums the signal inventory: 18 pins for NV-DDR4, of which
// 10 are payload (DQ[7:0] plus the DQS pair, 8 of them data). The
// paper's bandwidth argument rests on this split.
func TestPinCounts(t *testing.T) {
	var total, payload int
	for _, info := range Signals {
		total += info.Pins
		if !info.Control {
			payload += info.Pins
		}
	}
	if total != 18 {
		t.Fatalf("total pins = %d, want 18 (NV-DDR4)", total)
	}
	if payload != 10 {
		t.Fatalf("payload pins = %d, want 10 (DQ[7:0] + DQS pair)", payload)
	}
}

func TestSignalStrings(t *testing.T) {
	if CLE.String() != "CLE" || DQ.String() != "DQ[7:0]" || RBn.String() != "R/B_n" {
		t.Fatal("signal symbols wrong")
	}
	if Signal(99).String() != "signal(99)" {
		t.Fatal("unknown signal string wrong")
	}
}

func TestSignalInventoryMatchesTableI(t *testing.T) {
	var control, data int
	for _, info := range Signals {
		if info.Control {
			control++
		} else {
			data++
		}
	}
	if control != 8 {
		t.Fatalf("control signal kinds = %d, want 8", control)
	}
	if data != 3 {
		t.Fatalf("data signal kinds = %d, want 3 (DQ, DQS, DQS_c)", data)
	}
}

func TestTimingAt1000MTps(t *testing.T) {
	tm := NewTiming(1000)
	if tm.CycleTime != sim.Nanosecond {
		t.Fatalf("cycle time = %v, want 1ns at 1000 MT/s", tm.CycleTime)
	}
	// A 16 KB page should stream in 16.384 us.
	if got := tm.DataTime(16384); got != 16384*sim.Nanosecond {
		t.Fatalf("DataTime(16KB) = %v, want 16.384us", got)
	}
}

func TestTimingCmdPhases(t *testing.T) {
	tm := NewTiming(1000)
	// read: 2 cmd + 5 addr cycles at 10ns each + 50ns handshake = 120ns
	if got := tm.ReadCmdTime(); got != 120*sim.Nanosecond {
		t.Fatalf("ReadCmdTime = %v, want 120ns", got)
	}
	if got := tm.ProgramCmdTime(); got != tm.ReadCmdTime() {
		t.Fatalf("ProgramCmdTime = %v, want same as read", got)
	}
	// erase: 2 cmd + 3 addr = 50ns + 50ns handshake = 100ns
	if got := tm.EraseCmdTime(); got != 100*sim.Nanosecond {
		t.Fatalf("EraseCmdTime = %v, want 100ns", got)
	}
}

func TestTimingScalesWithRate(t *testing.T) {
	slow := NewTiming(500)
	fast := NewTiming(1000)
	if slow.DataTime(1000) != 2*fast.DataTime(1000) {
		t.Fatal("data time does not scale inversely with rate")
	}
}

func TestTimingInvalidRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero rate did not panic")
		}
	}()
	NewTiming(0)
}
