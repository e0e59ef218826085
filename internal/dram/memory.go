package dram

// Memory routes physical addresses to channels. The evaluation uses three
// layouts (§7):
//
//   - uniform DRAM: one DDR3 channel;
//   - hybrid PCM–DRAM [107]: a DRAM channel for the fast zone and a PCM
//     channel for the large zone, selected by address range;
//   - TL-DRAM [74]: one DRAM channel whose low address range (the near
//     segment rows) has near timing and the rest far timing.
type Memory struct {
	routes []route
	// chans lists the distinct channels in first-mapped order, so
	// TotalStats sums them without allocating.
	chans []*Channel
}

type route struct {
	base, size uint64
	ch         *Channel
}

// NewUniform builds an all-DRAM memory of the given capacity.
func NewUniform(capacity uint64) *Memory {
	m := &Memory{}
	m.Map(0, ^uint64(0), NewChannel("DRAM", DDR3Timing))
	_ = capacity
	return m
}

// NewHybrid builds a PCM–DRAM hybrid: [0, dramSize) on a DRAM channel,
// [dramSize, dramSize+pcmSize) on a PCM channel. Addresses outside both
// (e.g. the synthetic VIT/CVT regions) fall through to the DRAM channel.
func NewHybrid(dramSize, pcmSize uint64) *Memory {
	m := &Memory{}
	dramCh := NewChannel("DRAM", DDR3Timing)
	pcmCh := NewChannel("PCM", PCMTiming)
	m.Map(0, ^uint64(0), dramCh) // default route
	m.Map(dramSize, pcmSize, pcmCh)
	return m
}

// NewTLDRAM builds a TL-DRAM memory: the first nearSize bytes map to near-
// segment rows, the rest to far-segment rows, on one shared channel (bank
// state is shared, as in the real device).
func NewTLDRAM(nearSize, totalSize uint64) *Memory {
	m := &Memory{}
	ch := NewChannel("TL-DRAM", TLDRAMFar)
	ch.AddRegion(Region{Base: 0, Size: nearSize, Timing: TLDRAMNear})
	m.Map(0, ^uint64(0), ch)
	_ = totalSize
	return m
}

// Map routes [base, base+size) to ch. Later routes take precedence.
func (m *Memory) Map(base, size uint64, ch *Channel) {
	m.routes = append(m.routes, route{base, size, ch})
	for _, c := range m.chans {
		if c == ch {
			return
		}
	}
	m.chans = append(m.chans, ch)
}

// channel finds the routing entry for pa.
func (m *Memory) channel(pa uint64) *Channel {
	for i := len(m.routes) - 1; i >= 0; i-- {
		r := m.routes[i]
		if pa >= r.base && pa-r.base < r.size {
			return r.ch
		}
	}
	return m.routes[0].ch
}

// Access issues the access on the owning channel.
func (m *Memory) Access(pa uint64, now uint64, write bool) uint64 {
	return m.channel(pa).Access(pa, now, write)
}

// Channels returns the distinct channels (for stats).
func (m *Memory) Channels() []*Channel { return m.chans }

// TotalStats sums stats across channels.
func (m *Memory) TotalStats() Stats {
	var s Stats
	for _, ch := range m.chans {
		s.Reads += ch.Stats.Reads
		s.Writes += ch.Stats.Writes
		s.RowHits += ch.Stats.RowHits
		s.RowMisses += ch.Stats.RowMisses
		s.RowConflicts += ch.Stats.RowConflicts
	}
	return s
}
