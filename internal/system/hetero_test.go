package system

import (
	"testing"

	"vbi/internal/trace"
)

// skewedProfile has one small, very hot structure and one large cold one,
// so placement policy strongly separates the three systems.
func skewedProfile() trace.Profile {
	return trace.Profile{
		Name: "skewed", MemRefsPer1000: 300,
		Structs: []trace.Struct{
			{Name: "hot", Size: 48 << 20, Pattern: trace.Rand, Weight: 8,
				WriteFrac: 0.3, HotFrac: 0.5, HotBias: 0.9},
			{Name: "cold", Size: 700 << 20, Pattern: trace.Rand, Weight: 1,
				WriteFrac: 0.05},
		},
	}
}

func runHeteroPolicy(t *testing.T, mem HeteroMem, pol Policy, refs int) RunResult {
	t.Helper()
	m, err := NewHetero(HeteroConfig{Mem: mem, Policy: pol, Refs: refs}, skewedProfile())
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Fatalf("%v/%v: IPC = %f", mem, pol, res.IPC)
	}
	return res
}

func TestHeteroPolicyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	const refs = 60_000
	for _, mem := range []HeteroMem{HeteroPCMDRAM, HeteroTLDRAM} {
		unaware := runHeteroPolicy(t, mem, PolicyUnaware, refs)
		vbi := runHeteroPolicy(t, mem, PolicyVBI, refs)
		ideal := runHeteroPolicy(t, mem, PolicyIdeal, refs)
		if !(vbi.IPC > unaware.IPC) {
			t.Errorf("%v: VBI (%f) should beat unaware (%f)", mem, vbi.IPC, unaware.IPC)
		}
		if !(ideal.IPC >= vbi.IPC*0.95) {
			t.Errorf("%v: IDEAL (%f) should not trail VBI (%f)", mem, ideal.IPC, vbi.IPC)
		}
	}
}

func TestHeteroVBIMigrates(t *testing.T) {
	res := runHeteroPolicy(t, HeteroPCMDRAM, PolicyVBI, 60_000)
	if res.Extra["migrated.bytes"] == 0 {
		t.Error("VBI policy never migrated despite a skewed workload")
	}
}

func TestHeteroUnawareAndIdealDoNotMigrate(t *testing.T) {
	for _, pol := range []Policy{PolicyUnaware, PolicyIdeal} {
		res := runHeteroPolicy(t, HeteroPCMDRAM, pol, 20_000)
		if res.Extra["migrated.bytes"] != 0 {
			t.Errorf("%v migrated %d bytes", pol, res.Extra["migrated.bytes"])
		}
	}
}

func TestHeteroChunking(t *testing.T) {
	m, err := NewHetero(HeteroConfig{Mem: HeteroTLDRAM, Policy: PolicyUnaware,
		Refs: 5_000}, skewedProfile())
	if err != nil {
		t.Fatal(err)
	}
	// 48 MB + 700 MB at 16 MB chunks = 3 + 44 VBs.
	if got := len(m.mig.declared); got != 47 {
		t.Fatalf("chunk VBs = %d, want 47", got)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHeteroStringers(t *testing.T) {
	if HeteroPCMDRAM.String() != "PCM-DRAM" || HeteroTLDRAM.String() != "TL-DRAM" {
		t.Error("HeteroMem.String broken")
	}
	if PolicyUnaware.String() != "Hotness-Unaware" || PolicyVBI.String() != "VBI" ||
		PolicyIdeal.String() != "IDEAL" {
		t.Error("Policy.String broken")
	}
}
