package mtl

import (
	"fmt"

	"vbi/internal/phys"
)

// CheckInvariants verifies the MTL's structural invariants and returns an
// error describing the first violation. The property tests drive random
// workloads (enable/store/clone/promote/swap/migrate/disable) through the
// MTL and call this after every few steps.
//
// Invariants:
//  1. Every mapped region frame lies inside exactly one zone.
//  2. No two (VB, region) mappings share a frame unless the frame's
//     reference count records the sharing.
//  3. Reference counts match the actual number of mappings per frame.
//  4. A direct-mapped VB's regions sit at their fixed offsets from the
//     base; a chunk-mapped VB's regions sit at fixed offsets within their
//     chunk.
//  5. Table-backed VBs resolve every mapped region through their table to
//     the same frame the region map records.
//  6. Swapped regions are never simultaneously mapped.
//  7. The region table's mapped/swapped counts match its entries.
//  8. Per-zone buddy invariants hold (delegated to phys.Buddy).
func (m *MTL) CheckInvariants() error {
	frameUsers := make(map[phys.Addr]int)
	//vbi:allow maporder check-only: every mapping must pass; which violation is reported first is diagnostic detail
	for u, vb := range m.vbs {
		mapped, swapped := 0, 0
		for region, end := uint64(0), vb.regions.limit(); region < end; region++ {
			if vb.regions.isSwapped(region) {
				swapped++
			}
			frame, ok := vb.regions.frame(region)
			if !ok {
				continue
			}
			mapped++
			if m.ZoneOf(frame) < 0 {
				return fmt.Errorf("%v region %d frame %v outside all zones", u, region, frame)
			}
			if uint64(frame)%RegionSize != 0 {
				return fmt.Errorf("%v region %d frame %v misaligned", u, region, frame)
			}
			frameUsers[frame]++
			if vb.regions.isSwapped(region) {
				return fmt.Errorf("%v region %d both mapped and swapped", u, region)
			}
			switch {
			case vb.kind == TransDirect:
				want := vb.directBase + phys.Addr(region<<RegionShift)
				if frame != want {
					return fmt.Errorf("%v direct region %d at %v, want %v", u, region, frame, want)
				}
			case vb.blockShift > RegionShift:
				blockIdx := vb.blockIndex(region)
				chunk, ok := vb.blocks[blockIdx]
				if !ok {
					return fmt.Errorf("%v region %d mapped without its chunk", u, region)
				}
				regionsPerBlock := uint64(1) << (vb.blockShift - RegionShift)
				want := chunk + phys.Addr((region-blockIdx*regionsPerBlock)<<RegionShift)
				if frame != want {
					return fmt.Errorf("%v chunked region %d at %v, want %v", u, region, frame, want)
				}
			case vb.table != nil:
				walked, ok := vb.table.Lookup(region)
				if !ok || walked != frame {
					return fmt.Errorf("%v region %d table walk gives %v,%v; region map %v",
						u, region, walked, ok, frame)
				}
			default:
				return fmt.Errorf("%v region %d mapped but VB has no structure", u, region)
			}
		}
		if mapped != vb.regions.mappedN || swapped != vb.regions.swappedN {
			return fmt.Errorf("%v region table counts %d mapped / %d swapped, entries say %d / %d",
				u, vb.regions.mappedN, vb.regions.swappedN, mapped, swapped)
		}
	}
	// Sharing accounting: refs defaults to 1 when absent.
	//vbi:allow maporder check-only: every frame must pass; which violation is reported first is diagnostic detail
	for frame, users := range frameUsers {
		refs := m.frameRefs[frame]
		if refs == 0 {
			refs = 1
		}
		if users != refs {
			return fmt.Errorf("frame %v used by %d mappings, refcount %d", frame, users, refs)
		}
	}
	//vbi:allow maporder check-only: every refcount must pass; which violation is reported first is diagnostic detail
	for frame, refs := range m.frameRefs {
		if refs > 1 && frameUsers[frame] != refs {
			return fmt.Errorf("frame %v refcount %d but %d mappings", frame, refs, frameUsers[frame])
		}
	}
	for _, z := range m.zones {
		if err := z.Buddy.CheckInvariants(); err != nil {
			return fmt.Errorf("zone %s: %w", z.Name, err)
		}
	}
	return nil
}
