package packet

import "testing"

func TestReadControlWireSize(t *testing.T) {
	// Header + 2 commands + 2 column + 3 row = 8 flits, per Fig 8.
	if got := ReadControl().Flits(); got != 8 {
		t.Fatalf("read control flits = %d, want 8", got)
	}
	if got := ControlFlitsFor(); got != 8 {
		t.Fatalf("ControlFlitsFor = %d, want 8", got)
	}
	// Erase: header + 2 commands + 3 row = 6 flits.
	if got := EraseControl().Flits(); got != 6 {
		t.Fatalf("erase control flits = %d, want 6", got)
	}
}

func TestHeaderOverhead(t *testing.T) {
	if HeaderOverhead(TypeControl) != 0.25 {
		t.Fatalf("control header overhead = %v, want 0.25", HeaderOverhead(TypeControl))
	}
	if HeaderOverhead(TypeData) != 0.5 {
		t.Fatalf("data header overhead = %v, want 0.5", HeaderOverhead(TypeData))
	}
}

func TestTransferOverheadSmallForPages(t *testing.T) {
	// For a 16 KB page the total packetization overhead must be well under
	// 0.1% — the paper's argument that packet overhead is negligible.
	if ov := TransferOverhead(16384); ov <= 0 || ov > 0.001 {
		t.Fatalf("16KB transfer overhead = %v, want (0, 0.001]", ov)
	}
	// And it must shrink as pages grow.
	if TransferOverhead(65535) >= TransferOverhead(16384) {
		t.Fatal("overhead not decreasing with payload size")
	}
	if TransferOverhead(0) != 0 {
		t.Fatal("zero payload overhead should be 0")
	}
}

func TestTypeString(t *testing.T) {
	if TypeControl.String() != "control" || TypeData.String() != "data" {
		t.Fatal("type strings wrong")
	}
	if Type(3).String() != "type(3)" {
		t.Fatalf("unknown type string = %q", Type(3).String())
	}
}
