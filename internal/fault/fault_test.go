package fault

import "testing"

func TestDrawDeterministicAcrossInjectors(t *testing.T) {
	cfg := Config{Seed: 42, ReadECCRate: 0.3, GrantDropRate: 0.2}
	a, b := New(cfg), New(cfg)
	for i := 0; i < 1000; i++ {
		if a.Draw(ReadECC) != b.Draw(ReadECC) {
			t.Fatalf("ReadECC draw %d diverged between equal-seed injectors", i)
		}
		if a.Draw(GrantDrop) != b.Draw(GrantDrop) {
			t.Fatalf("GrantDrop draw %d diverged between equal-seed injectors", i)
		}
	}
}

func TestDrawSequencesIndependentPerClass(t *testing.T) {
	// Enabling a second class must not perturb the first class's sequence.
	solo := New(Config{Seed: 7, ReadECCRate: 0.3})
	both := New(Config{Seed: 7, ReadECCRate: 0.3, GrantDropRate: 0.5})
	for i := 0; i < 500; i++ {
		both.Draw(GrantDrop)
		if solo.Draw(ReadECC) != both.Draw(ReadECC) {
			t.Fatalf("ReadECC draw %d perturbed by GrantDrop draws", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(Config{Seed: 1, ReadECCRate: 0.5}), New(Config{Seed: 2, ReadECCRate: 0.5})
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if a.Draw(ReadECC) == b.Draw(ReadECC) {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical draw sequences")
	}
}

func TestRateApproximatelyRespected(t *testing.T) {
	in := New(Config{Seed: 3, ReadECCRate: 0.3})
	hits := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if in.Draw(ReadECC) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("hit fraction = %.3f, want ~0.30", frac)
	}
	if in.Injected(ReadECC) != int64(hits) {
		t.Fatalf("Injected = %d, hits = %d", in.Injected(ReadECC), hits)
	}
}

func TestQuotaForcesPerChipFailures(t *testing.T) {
	in := New(Config{Seed: 1, ProgramFailsPerChip: 2})
	for chip := uint64(0); chip < 4; chip++ {
		for i := 0; i < 2; i++ {
			if !in.DrawFor(ProgramFail, chip) {
				t.Fatalf("chip %d forced fail %d not injected", chip, i)
			}
		}
		// Quota exhausted: no more failures.
		for i := 0; i < 50; i++ {
			if in.DrawFor(ProgramFail, chip) {
				t.Fatalf("chip %d failed past its quota", chip)
			}
		}
	}
	if in.Injected(ProgramFail) != 8 {
		t.Fatalf("Injected = %d, want 8", in.Injected(ProgramFail))
	}
}

func TestNilInjectorIsSafe(t *testing.T) {
	var in *Injector
	if in.Draw(ReadECC) || in.DrawFor(ProgramFail, 0) || in.VChannelDead(0) {
		t.Fatal("nil injector reported a fault")
	}
	if in.RAS() != nil {
		t.Fatal("nil injector returned RAS counters")
	}
	if in.Rate(ReadECC) != 0 || in.Injected(ReadECC) != 0 {
		t.Fatal("nil injector reported nonzero state")
	}
}

func TestKillSwitch(t *testing.T) {
	in := New(Config{Seed: 1, DeadVChannels: []int{2}})
	if !in.VChannelDead(2) || in.VChannelDead(1) {
		t.Fatal("DeadVChannels config not honored")
	}
	in.KillVChannel(1)
	if !in.VChannelDead(1) {
		t.Fatal("KillVChannel had no effect")
	}
	in.ReviveVChannel(2)
	if in.VChannelDead(2) {
		t.Fatal("ReviveVChannel had no effect")
	}
}

func TestValidateRejectsNegativeRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative rate did not panic")
		}
	}()
	New(Config{Seed: 1, ReadECCRate: -0.1})
}

// Every rate and bound outside its legal range is rejected when the
// injector is built — the one place a rate enters the simulator.
func TestValidateRejectsOutOfRangeRates(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"on-die ECC above 1", Config{OnDieECCRate: 1.5}},
		{"on-die ECC negative", Config{OnDieECCRate: -0.1}},
		{"read ECC above 1", Config{ReadECCRate: 1.5}},
		{"grant drop above 1", Config{GrantDropRate: 1.5}},
		{"negative quota", Config{EraseFailsPerChip: -1}},
		{"negative dead v-channel", Config{DeadVChannels: []int{-1}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: accepted", tc.name)
				}
			}()
			New(tc.cfg)
		}()
	}
}
