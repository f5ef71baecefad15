// Package onfi models the conventional dedicated-signal flash channel
// interface (Open NAND Flash Interface, Table I of the paper). It provides
// the signal inventory and the per-transaction channel occupancy times for
// the baseline SSD, in which separate control pins (CLE, ALE, RE, WE, ...)
// sequence every command while only the 8 DQ pins carry payload.
package onfi

import (
	"fmt"

	"repro/internal/sim"
)

// Signal is one pin of the NV-DDR4-style flash interface.
type Signal int

// The 18-signal NV-DDR4 interface of Table I. DQ is listed once but is
// eight pins wide.
const (
	CLE  Signal = iota // Command Latch Enable
	ALE                // Address Latch Enable
	RE                 // Read Enable
	REc                // Read Enable Complement
	WE                 // Write Enable
	WP                 // Write Protection
	CE                 // Chip Enable
	RBn                // Ready/Busy
	DQ                 // Data Input/Outputs (8 pins)
	DQS                // Data Strobe
	DQSc               // Data Strobe Complement
)

// Info describes one signal for documentation and reporting.
type Info struct {
	Symbol      string
	Control     bool // control signal vs data I/O
	Pins        int  // number of physical pins
	Description string
}

// Signals is the Table I inventory.
var Signals = map[Signal]Info{
	CLE:  {"CLE", true, 1, "Command Latch Enable"},
	ALE:  {"ALE", true, 1, "Address Latch Enable"},
	RE:   {"RE", true, 1, "Read Enable"},
	REc:  {"RE_c", true, 1, "Read Enable Complement"},
	WE:   {"WE", true, 1, "Write Enable"},
	WP:   {"WP", true, 1, "Write Protection"},
	CE:   {"CE", true, 1, "Chip Enable"},
	RBn:  {"R/B_n", true, 1, "Ready/Busy"},
	DQ:   {"DQ[7:0]", false, 8, "Data Input/Outputs"},
	DQS:  {"DQS", false, 1, "Data Strobe"},
	DQSc: {"DQS_c", false, 1, "Data Strobe Complement"},
}

// String returns the signal symbol.
func (s Signal) String() string {
	if info, ok := Signals[s]; ok {
		return info.Symbol
	}
	return fmt.Sprintf("signal(%d)", int(s))
}

// Command/address cycle counts for the standard two-cycle commands.
const (
	ReadCmdCycles    = 2 // 00h ... 30h
	ProgramCmdCycles = 2 // 80h ... 10h
	EraseCmdCycles   = 2 // 60h ... D0h
	ColumnAddrCycles = 2
	RowAddrCycles    = 3
	FullAddrCycles   = ColumnAddrCycles + RowAddrCycles
	EraseAddrCycles  = RowAddrCycles
)

// Timing converts transfer rate into per-phase channel occupancy for the
// dedicated-signal interface.
type Timing struct {
	// CycleTime is the time for one 8-bit transfer beat on DQ.
	CycleTime sim.Time
	// CmdCycleTime is the time for one command/address cycle. Command and
	// address cycles on real NAND run on the slower asynchronous timing
	// set; we model them at a fixed multiple of the data cycle.
	CmdCycleTime sim.Time
	// Handshake is the fixed per-transaction overhead for CE assertion and
	// R/B polling.
	Handshake sim.Time
}

// DefaultCmdCycleFactor is how much slower a command/address cycle is than
// a data beat.
const DefaultCmdCycleFactor = 10

// DefaultHandshake is the fixed CE/R-B handshake overhead per transaction.
const DefaultHandshake = 50 * sim.Nanosecond

// NewTiming builds timing for a channel running at the given transfer rate
// (mega-transfers per second) — 1000 MT/s on an 8-bit bus moves one byte
// per nanosecond.
func NewTiming(transferMTps int) Timing {
	if transferMTps <= 0 {
		panic("onfi: non-positive transfer rate")
	}
	cycle := sim.Time(1_000_000 / transferMTps) // ps per beat
	return Timing{
		CycleTime:    cycle,
		CmdCycleTime: cycle * DefaultCmdCycleFactor,
		Handshake:    DefaultHandshake,
	}
}

// CmdAddrTime returns channel occupancy for issuing nCmd command cycles and
// nAddr address cycles, including the handshake.
func (t Timing) CmdAddrTime(nCmd, nAddr int) sim.Time {
	return t.Handshake + sim.Time(nCmd+nAddr)*t.CmdCycleTime
}

// ReadCmdTime is the occupancy to issue a page-read command.
func (t Timing) ReadCmdTime() sim.Time { return t.CmdAddrTime(ReadCmdCycles, FullAddrCycles) }

// ProgramCmdTime is the occupancy to issue a program command (the payload
// streams separately via DataTime).
func (t Timing) ProgramCmdTime() sim.Time { return t.CmdAddrTime(ProgramCmdCycles, FullAddrCycles) }

// EraseCmdTime is the occupancy to issue a block erase.
func (t Timing) EraseCmdTime() sim.Time { return t.CmdAddrTime(EraseCmdCycles, EraseAddrCycles) }

// DataTime is the occupancy to stream n payload bytes over the 8 DQ pins.
func (t Timing) DataTime(n int) sim.Time { return sim.Time(n) * t.CycleTime }
