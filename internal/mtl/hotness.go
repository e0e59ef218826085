package mtl

import (
	"fmt"
	"sort"

	"vbi/internal/addr"
	"vbi/internal/phys"
)

// This file implements the MTL support for heterogeneous main memories
// (§7.3): per-VB access counters (the fine-grained runtime information the
// hardware is privy to, §2) and VB migration between physical zones, which
// the placement policies of the PCM–DRAM and TL-DRAM systems drive.

// VBCount reports one VB's memory-level access activity since the last
// reset.
type VBCount struct {
	VB       addr.VBUID
	Accesses uint64 // LLC misses + writebacks observed by the MTL
	Writes   uint64
	Bytes    uint64 // allocated bytes
	Zone     int    // current home zone
}

// AccessCounts returns every enabled VB's counters, hottest first (by
// accesses per allocated byte, then raw accesses, then VBUID for
// determinism).
func (m *MTL) AccessCounts() []VBCount {
	out := make([]VBCount, 0, len(m.vbs))
	for u, vb := range m.vbs {
		out = append(out, VBCount{
			VB:       u,
			Accesses: vb.accessCount,
			Writes:   vb.writeCount,
			Bytes:    uint64(vb.regions.mappedN) * RegionSize,
			Zone:     vb.zone,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].density(), out[j].density()
		if di != dj {
			return di > dj
		}
		if out[i].Accesses != out[j].Accesses {
			return out[i].Accesses > out[j].Accesses
		}
		return out[i].VB < out[j].VB
	})
	return out
}

// density is accesses per allocated page (zero-byte VBs sort last).
func (c VBCount) density() float64 {
	if c.Bytes == 0 {
		return -1
	}
	return float64(c.Accesses) / float64(c.Bytes/RegionSize)
}

// ResetAccessCounts halves every counter (exponential decay keeps
// epoch-to-epoch history without letting stale phases dominate).
func (m *MTL) ResetAccessCounts() {
	for _, vb := range m.vbs {
		vb.accessCount /= 2
		vb.writeCount /= 2
	}
}

// SetHomeZone changes where future allocations of the VB land without
// moving existing data (initial-placement policies use it before first
// touch).
func (m *MTL) SetHomeZone(u addr.VBUID, zone int) error {
	vb, err := m.vb(u)
	if err != nil {
		return err
	}
	if zone < 0 || zone >= len(m.zones) {
		return fmt.Errorf("mtl: zone %d out of range", zone)
	}
	vb.zone = zone
	return nil
}

// MigrateVB moves the VB's allocated regions into the target zone,
// returning the number of bytes actually moved. Regions already in the
// target, and regions shared copy-on-write, stay put. Migration requires a
// page-granularity VB (the heterogeneous-memory configurations run the MTL
// without early reservation); a reserved direct-mapped VB is first
// downgraded. If the target zone fills up mid-way the move stops early.
func (m *MTL) MigrateVB(u addr.VBUID, zone int) (uint64, error) {
	vb, err := m.vb(u)
	if err != nil {
		return 0, err
	}
	if zone < 0 || zone >= len(m.zones) {
		return 0, fmt.Errorf("mtl: zone %d out of range", zone)
	}
	if (vb.kind == TransDirect && vb.reservedOrder >= 0) || vb.blockShift > RegionShift {
		if err := m.downgradeToPages(vb); err != nil {
			return 0, err
		}
	}
	vb.zone = zone
	z := m.zones[zone]
	var moved uint64
	for region, end := uint64(0), vb.regions.limit(); region < end; region++ {
		frame, ok := vb.regions.frame(region)
		if !ok || m.ZoneOf(frame) == zone || m.frameRefs[frame] > 1 {
			continue
		}
		local, ok := z.Buddy.Alloc(u, 0)
		if !ok {
			break // target zone full
		}
		newFrame := z.Base + local
		if m.Data != nil {
			m.Data.CopyRange(uint64(newFrame), uint64(frame), RegionSize)
			m.Data.ZeroRange(uint64(frame), RegionSize)
		}
		vb.regions.setFrame(region, newFrame)
		switch vb.kind {
		case TransDirect:
			// An unreserved direct VB (4 KB class): move its base.
			vb.directBase = newFrame
		default:
			m.mapRegionOrPanic(vb, region, newFrame)
		}
		m.freeFrame(frame, 0)
		m.InvalidateTLBRange(addr.Make(u, region<<RegionShift), RegionSize)
		moved += RegionSize
	}
	// The translation structure follows its VB: otherwise every walk of a
	// migrated VB would still pay the old zone's latency.
	if moved > 0 && vb.table != nil {
		if n, err := m.rebuildTable(vb); err == nil {
			moved += n
		}
	}
	m.Stats.MigratedBytes += moved
	return moved, nil
}

// rebuildTable reallocates the VB's translation structure in its (new)
// home zone, remapping the existing regions. Returns the bytes moved.
func (m *MTL) rebuildTable(vb *vbState) (uint64, error) {
	if vb.blockShift != RegionShift {
		return 0, fmt.Errorf("mtl: rebuildTable on chunk-mapped VB")
	}
	old, oldKind := vb.table, vb.kind
	if err := m.newPageTable(vb); err != nil {
		return 0, err
	}
	for region, end := uint64(0), vb.regions.limit(); region < end; region++ {
		frame, ok := vb.regions.frame(region)
		if !ok {
			continue
		}
		if err := vb.table.Map(region, frame); err != nil {
			m.freeTable(vb)
			vb.table, vb.kind = old, oldKind
			return 0, err
		}
	}
	return m.releaseTable(old), nil
}

// ZoneBytes returns the allocated bytes each zone currently holds for the
// VB (experiments verify placement with it).
func (m *MTL) ZoneBytes(u addr.VBUID) ([]uint64, error) {
	vb, err := m.vb(u)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(m.zones))
	for region, end := uint64(0), vb.regions.limit(); region < end; region++ {
		if frame, ok := vb.regions.frame(region); ok {
			if zi := m.ZoneOf(frame); zi >= 0 {
				out[zi] += RegionSize
			}
		}
	}
	return out, nil
}

// frameForTest exposes a region's frame for white-box tests.
func (m *MTL) frameForTest(u addr.VBUID, region uint64) (phys.Addr, bool) {
	vb, ok := m.vbs[u]
	if !ok {
		return phys.NoAddr, false
	}
	return vb.regions.frame(region)
}
