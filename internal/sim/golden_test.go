package sim

import (
	"fmt"
	"strings"
	"testing"
)

// goldenRun executes a scripted mixed workload on q — bare events,
// timed holds on two contended resources, holds whose hook sets their
// length at the grant, nested scheduling, and a RunUntil cut — and
// serializes the exact firing order as "id@time" tokens. The script is
// driven by an inline LCG so it never depends on math/rand internals.
func goldenRun(q queue, rA, rB holder) string {
	var sb strings.Builder
	rec := func(id string, arg int) { fmt.Fprintf(&sb, "%s%d@%d;", id, arg, int64(q.Now())) }

	lcg := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return (lcg >> 33) % n
	}

	for i := 0; i < 48; i++ {
		i := i
		switch next(5) {
		case 0:
			q.Schedule(Time(next(60)), func() { rec("t", i) })
		case 1:
			rA.Use(Time(next(25)), func() { rec("a", i) })
		case 2:
			rB.Use(Time(next(25)), func() { rec("b", i) })
		case 3:
			rA.UseGranted("manual", func() Time {
				rec("g", i)
				return Time(next(15))
			}, func() { rec("r", i) })
		case 4:
			// Timed hold with no completion callback, mixed in so the
			// done==nil path is part of the golden ordering too.
			rB.Use(Time(next(10)), nil)
		}
	}
	q.Schedule(5, func() {
		rec("n", 0)
		q.Schedule(0, func() { rec("n", 1) })
		q.Schedule(7, func() { rec("n", 2) })
	})
	n := q.RunUntil(90)
	rec("cut", int(n))
	q.Run()
	fmt.Fprintf(&sb, "fired=%d now=%d busyA=%d busyB=%d waitA=%d waitB=%d",
		q.EventsFired(), int64(q.Now()),
		int64(rA.TotalBusy()), int64(rB.TotalBusy()),
		int64(rA.TotalWait()), int64(rB.TotalWait()))
	return sb.String()
}

// TestEngineGoldenSequence pins the engine's event ordering bit-for-bit.
// Any scheduler change that reorders events — even among same-instant
// events — breaks every downstream experiment's reproducibility and must
// fail here first. The same script on the reference queue of
// order_test.go must produce the same string, so a re-captured golden is
// checked by an independent oracle, not merely re-recorded.
func TestEngineGoldenSequence(t *testing.T) {
	e := NewEngine()
	got := goldenRun(e, NewResource(e, "A"), NewResource(e, "B"))
	if got != goldenWant {
		t.Fatalf("event sequence diverged from golden:\n got: %s\nwant: %s", got, goldenWant)
	}
	ref := &refEngine{}
	if got := goldenRun(ref, &refResource{e: ref}, &refResource{e: ref}); got != goldenWant {
		t.Fatalf("reference queue diverged from golden:\n got: %s\nwant: %s", got, goldenWant)
	}
}

const goldenWant = "n0@5;n1@5;t42@6;t21@9;a2@12;n2@12;t38@14;t12@19;t26@19;t23@21;t30@24;b3@26;g9@29;a4@29;g10@34;r9@34;r10@34;t28@37;g13@38;a11@38;t35@39;r13@40;g20@40;a16@40;t5@48;b6@48;g22@52;r20@52;r22@54;t15@56;b7@58;a25@65;b8@77;g29@78;a27@78;r29@84;b14@85;b17@88;g40@89;a37@89;cut35@90;b18@91;b19@97;r40@101;b31@106;a45@124;a46@124;b43@156;b47@177;fired=51 now=177 busyA=124 busyB=177 waitA=874 waitB=1833"
