// Package mtl implements the Memory Translation Layer (§4.5): the hardware
// component in the memory controller that manages physical memory
// allocation and VBI-to-physical address translation, relieving the OS of
// both duties.
//
// The MTL centres on the VB Info Tables (VITs), one per size class, which
// hold each VB's enable bit, property bitvector, reference count and
// translation-structure descriptor. Address translation happens only when
// an access misses the on-chip caches, using a VIT cache, an MTL TLB with
// variable-granularity entries, and per-VB translation structures of three
// kinds (§5.2): direct mappings, single-level tables and multi-level tables
// whose depth matches the VB's size class.
//
// The MTL also implements the paper's two allocation optimizations:
// delayed physical memory allocation (§5.1: memory is allocated only when a
// dirty line leaves the LLC, and reads of never-written regions return zero
// lines without touching DRAM) and early reservation (§5.3: a VB's full
// extent is reserved contiguously up front so it can be direct-mapped with
// a single TLB entry, with the buddy allocator's three-level priority
// letting other VBs steal from reservations under memory pressure).
package mtl

import (
	"fmt"
	"slices"

	"vbi/internal/addr"
	"vbi/internal/memdata"
	"vbi/internal/pagetable"
	"vbi/internal/phys"
	"vbi/internal/prop"
	"vbi/internal/tlb"
)

// RegionShift is log2 of the base allocation granularity (4 KB regions).
const RegionShift = 12

// RegionSize is the base allocation granularity (§4.5.2).
const RegionSize = 1 << RegionShift

// vitEntryBase is the synthetic physical region holding the VITs; entries
// are 64 bytes apart so distinct VBs never share a cache line.
const vitEntryBase = uint64(1) << 45

// VITEntryAddr returns the physical address of the VIT entry for u, used by
// the timing model to charge the memory access of a VIT-cache miss.
func VITEntryAddr(u addr.VBUID) phys.Addr {
	return phys.Addr(vitEntryBase | uint64(u.Class())<<40 | u.VBID()*64)
}

// Zone is one region of the physical address space with uniform timing
// (e.g. all-DRAM, the DRAM side of a PCM–DRAM hybrid, or the PCM side).
type Zone struct {
	Name string
	Base phys.Addr
	Size uint64
	// Buddy manages the zone with zone-local addresses [0, Size).
	Buddy *phys.Buddy
}

func (z *Zone) contains(p phys.Addr) bool {
	return p >= z.Base && uint64(p-z.Base) < z.Size
}

// Config selects the MTL variant being simulated.
type Config struct {
	// DelayedAlloc enables §5.1: allocation on dirty LLC eviction and
	// zero-line service for never-written regions (VBI-2 and VBI-Full).
	DelayedAlloc bool
	// EarlyReservation enables §5.3: whole-VB contiguous reservation and
	// direct mapping (VBI-Full).
	EarlyReservation bool
	// UniformTables disables the flexible translation structures of §5.2:
	// every VB gets a fixed 4-level table, like x86-64's page tables,
	// including the tables Clone, Promote and MigrateVB build. Used by the
	// ablation that quantifies the flexible-structure benefit.
	UniformTables bool
	// VITCacheEntries sizes the on-chip VIT cache (default 32).
	VITCacheEntries int
	// TLBL1Entries and TLBL2Entries size the MTL TLB levels (defaults 64
	// and 512, mirroring the baseline TLB budget of Table 1).
	TLBL1Entries int
	TLBL2Entries int
	// Placement picks the home zone for a VB at its first allocation
	// (heterogeneous-memory systems override it); nil places in zone 0.
	Placement func(p prop.Props) int
}

func (c Config) withDefaults() Config {
	if c.VITCacheEntries == 0 {
		c.VITCacheEntries = 32
	}
	if c.TLBL1Entries == 0 {
		c.TLBL1Entries = 64
	}
	if c.TLBL2Entries == 0 {
		c.TLBL2Entries = 512
	}
	return c
}

// Stats counts MTL events for the timing model and the experiments.
type Stats struct {
	Translations   uint64 // translation requests (LLC misses + writebacks)
	TLBL1Hits      uint64
	TLBL2Hits      uint64
	VITCacheHits   uint64
	VITMemAccesses uint64 // DRAM reads of VIT entries
	WalkAccesses   uint64 // DRAM reads of translation-structure entries
	ZeroLines      uint64 // reads served as zero lines without DRAM (§5.1)
	RegionAllocs   uint64 // 4 KB regions allocated
	Reservations   uint64 // successful early reservations
	Downgrades     uint64 // direct-mapped VBs demoted to page granularity
	OSFaults       uint64 // swap-ins and file loads
	COWCopies      uint64
	MigratedBytes  uint64
	SwapOuts       uint64
}

// MTL is the Memory Translation Layer instance.
type MTL struct {
	cfg   Config
	zones []*Zone
	vbs   map[addr.VBUID]*vbState

	vitCache *tlb.TLB      // keyed by VBUID
	tlbL1    *tlb.RangeTLB // variable-granularity entries
	tlbL2    *tlb.RangeTLB

	// Data is the functional physical-memory image (nil disables data
	// carrying; the timing path never needs it).
	Data *memdata.Store
	// swap and files hold swapped-out and memory-mapped-file bytes, keyed
	// by VBI address (the VB-relative identity survives remapping).
	swap  *memdata.Store
	files *memdata.Store

	// frameRefs counts VBs referencing each region frame (copy-on-write
	// sharing after clone_vb, §3.4). Absent means 1 for allocated frames.
	frameRefs map[phys.Addr]int

	Stats Stats
}

// vbState is the MTL-internal VIT entry (§4.5.1) plus translation state.
type vbState struct {
	id       addr.VBUID
	props    prop.Props
	refCount int
	kind     TransKind
	zone     int

	// regions records each region's physical frame and swap state in a
	// dense table keyed by region index, regardless of translation-
	// structure kind.
	regions regionTab
	// isFile marks memory-mapped-file VBs (demand-load instead of
	// zero-fill).
	isFile bool

	// directBase is the VB's physical base when kind == TransDirect.
	directBase phys.Addr
	// reservedOrder is the buddy order of the early reservation (-1 none).
	reservedOrder int
	// table backs TransSingle and TransMulti.
	table *pagetable.Table
	// blockShift is the mapping granularity: RegionShift (12) for plain
	// page-granularity tables, larger under the chunked early-reservation
	// fallback of §5.3 (the VB is mapped in blocks of the largest size
	// class that could be reserved contiguously).
	blockShift uint
	// blocks maps block index -> reserved chunk base when blockShift >
	// RegionShift.
	blocks map[uint64]phys.Addr

	// accessCount and writeCount are the MTL's hotness counters (memory-
	// level accesses, i.e. LLC misses and writebacks) used by the
	// heterogeneous-memory policies (§7.3).
	accessCount uint64
	writeCount  uint64

	// m is the owning MTL: the VB is its table's node source
	// (AllocSized), so tables allocate from the VB's home zone.
	m *MTL
}

// regionTab is the per-VB region table: a dense slice keyed by region
// index, replacing the regions and swapped maps the vbState previously
// carried (the pagetable.Table pattern — flat arrays, sentinel entries). Each
// entry packs the region's 4 KB-aligned physical frame with two flag bits
// in the alignment-freed low bits, so the per-reference frame probe in
// translate() is one bounds check and one load — no hashing, and never a
// rehash while the working set grows.
//
// A zero entry means the region has never been touched, so growth is a
// plain zero-extending append. The present and swapped bits are
// independent: allocateRegion installs the frame before fillFreshRegion
// consults (and clears) the swap state, so a region coming back from the
// backing store is briefly both.
//
// Iteration in ascending region index replaces the old sortedRegions()
// snapshot: multi-region walks that allocate or free frames must visit
// regions in this order — map order would randomize allocator state,
// making otherwise-identical runs nondeterministic. The dense table makes
// the deterministic order free instead of a sort per walk.
type regionTab struct {
	tab      []uint64 // region index -> frame | flag bits; 0 = untouched
	mappedN  int      // entries with regionPresent set
	swappedN int      // entries with regionSwapped set
}

const (
	// regionPresent marks a mapped region: the entry's frame bits hold
	// its physical frame (which may legitimately be frame 0).
	regionPresent = 1 << 0
	// regionSwapped marks a region whose bytes live in the backing store.
	regionSwapped = 1 << 1
	// regionFlagMask covers the flag bits; frames are RegionSize-aligned,
	// so the low RegionShift bits of the address are free to carry them.
	regionFlagMask = RegionSize - 1
)

// grow extends the table to cover region (zero entries = untouched).
func (r *regionTab) grow(region uint64) {
	if region >= uint64(len(r.tab)) {
		r.tab = append(r.tab, make([]uint64, region+1-uint64(len(r.tab)))...)
	}
}

// reserve sizes the table's capacity for n regions in one allocation. The
// length, and so limit(), still grows only as regions are touched.
func (r *regionTab) reserve(n uint64) {
	if n > uint64(len(r.tab)) {
		r.tab = slices.Grow(r.tab, int(n)-len(r.tab))
	}
}

// limit returns the exclusive upper bound of touched region indices;
// ascending scans to limit() visit every live entry deterministically.
func (r *regionTab) limit() uint64 { return uint64(len(r.tab)) }

// frame returns the physical frame backing the region, if mapped.
//
//vbi:hotpath
func (r *regionTab) frame(region uint64) (phys.Addr, bool) {
	if region >= uint64(len(r.tab)) {
		return 0, false
	}
	e := r.tab[region]
	return phys.Addr(e &^ regionFlagMask), e&regionPresent != 0
}

// setFrame maps the region to frame, preserving its swap state.
func (r *regionTab) setFrame(region uint64, frame phys.Addr) {
	r.grow(region)
	e := &r.tab[region]
	if *e&regionPresent == 0 {
		r.mappedN++
	}
	*e = uint64(frame) | regionPresent | *e&regionSwapped
}

// delFrame unmaps the region, preserving its swap state.
func (r *regionTab) delFrame(region uint64) {
	if region < uint64(len(r.tab)) && r.tab[region]&regionPresent != 0 {
		r.mappedN--
		r.tab[region] &= regionSwapped
	}
}

// isSwapped reports whether the region's bytes live in the backing store.
func (r *regionTab) isSwapped(region uint64) bool {
	return region < uint64(len(r.tab)) && r.tab[region]&regionSwapped != 0
}

// setSwapped marks the region as living in the backing store.
func (r *regionTab) setSwapped(region uint64) {
	r.grow(region)
	if r.tab[region]&regionSwapped == 0 {
		r.swappedN++
		r.tab[region] |= regionSwapped
	}
}

// clearSwapped removes the region's backing-store mark.
func (r *regionTab) clearSwapped(region uint64) {
	if region < uint64(len(r.tab)) && r.tab[region]&regionSwapped != 0 {
		r.swappedN--
		r.tab[region] &^= regionSwapped
	}
}

// clearFrames unmaps every region in place, keeping swap state (Promote
// uses it after transferring frame ownership to the larger VB).
func (r *regionTab) clearFrames() {
	for i := range r.tab {
		r.tab[i] &= regionSwapped
	}
	r.mappedN = 0
}

// New builds an MTL over the given zones. Zones must be non-empty; zone
// bases must be 0, size0, size0+size1, ... (callers use NewZones).
func New(cfg Config, zones []*Zone) *MTL {
	if len(zones) == 0 {
		panic("mtl: no zones")
	}
	cfg = cfg.withDefaults()
	return &MTL{
		cfg:       cfg,
		zones:     zones,
		vbs:       make(map[addr.VBUID]*vbState),
		vitCache:  tlb.New("VITcache", 1, cfg.VITCacheEntries),
		tlbL1:     tlb.NewRange("MTL-TLB-L1", cfg.TLBL1Entries),
		tlbL2:     tlb.NewRange("MTL-TLB-L2", cfg.TLBL2Entries),
		swap:      memdata.New(),
		files:     memdata.New(),
		frameRefs: make(map[phys.Addr]int),
	}
}

// NewZones lays out zones back to back starting at physical address 0.
func NewZones(sizes map[string]uint64, order []string) []*Zone {
	var zones []*Zone
	base := phys.Addr(0)
	for _, name := range order {
		size := sizes[name]
		zones = append(zones, &Zone{
			Name:  name,
			Base:  base,
			Size:  size,
			Buddy: phys.NewBuddy(size),
		})
		base += phys.Addr(size)
	}
	return zones
}

// NewSimple builds a single-zone MTL of the given capacity, with a
// functional data store attached.
func NewSimple(cfg Config, capacity uint64) *MTL {
	m := New(cfg, NewZones(map[string]uint64{"DRAM": capacity}, []string{"DRAM"}))
	m.Data = memdata.New()
	return m
}

// Zones exposes the zone layout (read-only use).
func (m *MTL) Zones() []*Zone { return m.zones }

// Config returns the MTL configuration.
func (m *MTL) Config() Config { return m.cfg }

// ZoneOf returns the index of the zone containing p, or -1.
func (m *MTL) ZoneOf(p phys.Addr) int {
	for i, z := range m.zones {
		if z.contains(p) {
			return i
		}
	}
	return -1
}

func (m *MTL) vb(u addr.VBUID) (*vbState, error) {
	vb, ok := m.vbs[u]
	if !ok {
		return nil, fmt.Errorf("mtl: %v not enabled", u)
	}
	return vb, nil
}

// Enable implements the enable_vb instruction (§4.2): it marks the VB
// enabled with the given properties, reference count zero, and no
// translation structure yet.
func (m *MTL) Enable(u addr.VBUID, p prop.Props) error {
	if !u.Valid() {
		return fmt.Errorf("mtl: invalid VBUID %#x", uint64(u))
	}
	if _, ok := m.vbs[u]; ok {
		return fmt.Errorf("mtl: %v already enabled", u)
	}
	zone := 0
	if m.cfg.Placement != nil {
		zone = m.cfg.Placement(p)
	}
	m.vbs[u] = &vbState{
		m:             m,
		id:            u,
		props:         p,
		kind:          TransNone,
		zone:          zone,
		isFile:        p.Has(prop.MappedFile),
		reservedOrder: -1,
		blockShift:    RegionShift,
	}
	return nil
}

// Enabled reports whether the VB is currently enabled.
func (m *MTL) Enabled(u addr.VBUID) bool {
	_, ok := m.vbs[u]
	return ok
}

// Props returns the VB's property bitvector.
func (m *MTL) Props(u addr.VBUID) (prop.Props, error) {
	vb, err := m.vb(u)
	if err != nil {
		return 0, err
	}
	return vb.props, nil
}

// RefCount returns the VB's attach reference count.
func (m *MTL) RefCount(u addr.VBUID) int {
	if vb, ok := m.vbs[u]; ok {
		return vb.refCount
	}
	return 0
}

// IncRef and DecRef maintain the VIT reference count on attach/detach.
func (m *MTL) IncRef(u addr.VBUID) error {
	vb, err := m.vb(u)
	if err != nil {
		return err
	}
	vb.refCount++
	return nil
}

// DecRef decrements the reference count, returning the new value.
func (m *MTL) DecRef(u addr.VBUID) (int, error) {
	vb, err := m.vb(u)
	if err != nil {
		return 0, err
	}
	if vb.refCount == 0 {
		return 0, fmt.Errorf("mtl: %v refcount underflow", u)
	}
	vb.refCount--
	return vb.refCount, nil
}

// Disable implements disable_vb (§4.2.4): it destroys all state associated
// with the VB — translation structures, physical frames (modulo shared
// copy-on-write frames), reservations, swap and file data, and MTL TLB/VIT
// cache entries. On-chip cache invalidation is the caller's duty (the
// paper performs it lazily).
func (m *MTL) Disable(u addr.VBUID) error {
	vb, err := m.vb(u)
	if err != nil {
		return err
	}
	base, size := uint64(u.Base()), u.Size()
	m.tlbL1.InvalidateRange(base, size)
	m.tlbL2.InvalidateRange(base, size)
	m.vitCache.InvalidateIf(func(k uint64) bool { return k == uint64(u) })
	for region, end := uint64(0), vb.regions.limit(); region < end; region++ {
		if frame, ok := vb.regions.frame(region); ok {
			m.derefFrame(frame)
		}
	}
	if vb.table != nil {
		m.freeTable(vb)
	}
	m.unreserveAll(vb)
	m.swap.ZeroRange(base, size)
	m.files.ZeroRange(base, size)
	delete(m.vbs, u)
	return nil
}

// derefFrame decrements a region frame's reference count, freeing it when
// it drops to zero.
func (m *MTL) derefFrame(frame phys.Addr) {
	if n, ok := m.frameRefs[frame]; ok && n > 1 {
		m.frameRefs[frame] = n - 1
		return
	}
	delete(m.frameRefs, frame)
	m.freeFrame(frame, 0)
}

func (m *MTL) freeFrame(p phys.Addr, order int) {
	zi := m.ZoneOf(p)
	if zi < 0 {
		panic(fmt.Sprintf("mtl: freeing frame %v outside all zones", p))
	}
	z := m.zones[zi]
	z.Buddy.Free(p-z.Base, order)
}

// unreserveAll releases every reservation (whole-VB or chunked) the VB
// holds in any zone.
func (m *MTL) unreserveAll(vb *vbState) {
	for _, z := range m.zones {
		z.Buddy.Unreserve(vb.id)
	}
	vb.reservedOrder = -1
}

// InvalidateTLBRange drops MTL TLB entries overlapping the VBI range (used
// after migration and promotion).
func (m *MTL) InvalidateTLBRange(base addr.Addr, size uint64) {
	m.tlbL1.InvalidateRange(uint64(base), size)
	m.tlbL2.InvalidateRange(uint64(base), size)
}

// AllocatedRegions returns the number of allocated 4 KB regions of the VB.
func (m *MTL) AllocatedRegions(u addr.VBUID) int {
	if vb, ok := m.vbs[u]; ok {
		return vb.regions.mappedN
	}
	return 0
}

// Kind returns the VB's translation-structure kind.
func (m *MTL) Kind(u addr.VBUID) TransKind {
	if vb, ok := m.vbs[u]; ok {
		return vb.kind
	}
	return TransNone
}

// FreeBytes sums free bytes across zones.
func (m *MTL) FreeBytes() uint64 {
	var n uint64
	for _, z := range m.zones {
		n += z.Buddy.FreeBytes()
	}
	return n
}
