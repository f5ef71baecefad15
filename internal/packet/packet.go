// Package packet holds the pSSD wire formats of the paper's Fig 8 as
// flit counts: the channel models (bus.Packetized, the mesh) charge
// serialization time by these lengths, and Fig 8 reports the header
// overheads. Nothing encodes or decodes packets; the on-die controller
// that would decode them is modelled as this flit timing.
//
// A flit is 8 bits. On an 8-bit channel one flit moves per transfer beat;
// on a 16-bit pSSD channel two flits move per beat. Packets are one or more
// flits:
//
//	Control packet:  [header][command flits][column flits][row flits]
//	Data packet:     [header][len lo][len hi][payload flits...]
//
// The control header uses 6 of its 8 bits (25% header overhead) and the
// data header uses 4 of 8 (50%), matching the overhead figures quoted in
// the paper. Against a 16 KB page payload both are negligible, which is the
// paper's point.
//
// Header layout (control):
//
//	bit 7..6  Type = 00
//	bit 5..4  T    = number of command flits (0..3)
//	bit 3     C    = column address present
//	bit 2     R    = row address present
//	bit 1..0  reserved (the 2 unused bits = 25% header overhead)
//
// Header layout (data):
//
//	bit 7..6  Type = 01
//	bit 5     V    = deliver into a V-page register (flash-to-flash)
//	bit 4     S    = split segment (one half of a split page transfer)
//	bit 3..0  reserved (the 4 unused bits = 50% header overhead)
package packet

import "fmt"

// FlitBits is the width of one flow-control digit.
const FlitBits = 8

// Type is the 2-bit packet type carried in every header.
type Type uint8

// Packet types.
const (
	TypeControl Type = 0 // command + addresses
	TypeData    Type = 1 // payload transfer
)

// String names the type.
func (t Type) String() string {
	switch t {
	case TypeControl:
		return "control"
	case TypeData:
		return "data"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Command opcodes carried in control packets, kept verbatim from ONFi.
const (
	OpReadFirst    = 0x00 // page read, first cycle
	OpReadSecond   = 0x30 // page read, confirm cycle
	OpErase        = 0x60 // block erase, first cycle
	OpEraseConfirm = 0xD0 // block erase, confirm cycle
)

// Address flits, as in ONFi: a 2-flit column and a 3-flit row address.
const (
	colFlits = 2
	rowFlits = 3
)

// Control is the shape of a control packet: its command flits and which
// address fields follow them.
type Control struct {
	Commands []uint8 // 1..3 command flits
	HasCol   bool    // column address present (2 flits)
	HasRow   bool    // row address present (3 flits)
}

// Flits returns the on-wire length in flits, including the header.
func (c Control) Flits() int {
	n := 1 + len(c.Commands)
	if c.HasCol {
		n += colFlits
	}
	if c.HasRow {
		n += rowFlits
	}
	return n
}

// EraseControl is the control packet for a block erase (row only).
func EraseControl() Control {
	return Control{Commands: []uint8{OpErase, OpEraseConfirm}, HasRow: true}
}

// DataFlitsFor returns the wire length of a data packet carrying n payload
// bytes: header + 2 length flits + payload.
func DataFlitsFor(n int) int { return 1 + 2 + n }

// ControlFlitsFor returns the wire length of the control packet for a
// typical two-cycle command with full column+row addressing (e.g. read or
// program): header + 2 commands + 2 column + 3 row = 8 flits.
func ControlFlitsFor() int { return 8 }

// HeaderOverhead reports the fraction of header bits that are wasted
// (reserved) for each packet type: 2/8 for control, 4/8 for data — the
// numbers quoted in the paper.
func HeaderOverhead(t Type) float64 {
	switch t {
	case TypeControl:
		return 2.0 / 8.0
	case TypeData:
		return 4.0 / 8.0
	default:
		return 0
	}
}

// TransferOverhead reports the fractional wire overhead of moving a
// payload of n bytes as one data packet plus one full control packet,
// relative to the raw payload: the whole-transaction overhead the paper
// argues is small for 16-64 KB pages.
func TransferOverhead(n int) float64 {
	if n <= 0 {
		return 0
	}
	wire := DataFlitsFor(n) + ControlFlitsFor()
	return float64(wire-n) / float64(n)
}
