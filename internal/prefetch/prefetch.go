// Package prefetch implements the data prefetchers offered to the tuning
// algorithm: next-line, PC-indexed stride (Fu et al., MICRO 1992) and
// global history buffer (Nesbit & Smith, HPCA 2004) prefetching, plus the
// aggressive "spatial" prefetcher that the reference A72 board uses and the
// public model can only approximate — the deliberate abstraction gap behind
// the paper's remaining out-of-order model error (povray/x264 outliers).
package prefetch

import (
	"fmt"

	"racesim/internal/recycle"
)

// Kind selects a prefetcher implementation.
type Kind string

// Prefetcher kinds.
const (
	KindNone     Kind = "none"
	KindNextLine Kind = "next_line"
	KindStride   Kind = "stride"
	KindGHB      Kind = "ghb"
	KindSpatial  Kind = "spatial"
)

// Kinds lists the prefetcher kinds exposed to the tuner: the values of
// l1d.prefetch.kind and l2.prefetch.kind (internal/sim/space.go), in
// sampling order, so reordering it re-pins every tuning race. KindSpatial
// is intentionally excluded: it models undisclosed hardware behaviour.
var Kinds = []Kind{KindNone, KindNextLine, KindStride, KindGHB}

// Config configures a prefetcher instance.
type Config struct {
	Kind         Kind
	Degree       int  // lines fetched per trigger
	Distance     int  // lines ahead of the demand stream
	TableEntries int  // stride table / GHB index table entries (power of two)
	GHBEntries   int  // global history buffer depth
	OnHit        bool // also train/trigger on cache hits (incl. prefetched lines)
}

// DefaultConfig returns a disabled prefetcher.
func DefaultConfig() Config {
	return Config{Kind: KindNone, Degree: 1, Distance: 1, TableEntries: 64, GHBEntries: 256}
}

// maxDegree bounds Degree; it sizes the per-prefetcher scratch arrays
// Observe returns slices of.
const maxDegree = 16

// MaxTargets bounds the addresses one Observe call returns (the largest
// scratch array, the spatial prefetcher's).
const MaxTargets = 2 * maxDegree

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch c.Kind {
	case KindNone:
		return nil
	case KindNextLine, KindStride, KindGHB, KindSpatial:
	default:
		return fmt.Errorf("prefetch: unknown kind %q", c.Kind)
	}
	if c.Degree < 1 || c.Degree > maxDegree {
		return fmt.Errorf("prefetch: degree %d out of [1,%d]", c.Degree, maxDegree)
	}
	if c.Distance < 1 || c.Distance > 64 {
		return fmt.Errorf("prefetch: distance %d out of [1,64]", c.Distance)
	}
	if c.Kind == KindStride || c.Kind == KindGHB {
		if c.TableEntries <= 0 || c.TableEntries&(c.TableEntries-1) != 0 {
			return fmt.Errorf("prefetch: TableEntries %d must be a power of two", c.TableEntries)
		}
	}
	if c.Kind == KindGHB && c.GHBEntries <= 0 {
		return fmt.Errorf("prefetch: GHBEntries %d invalid", c.GHBEntries)
	}
	return nil
}

// Prefetcher observes demand accesses and proposes line addresses to
// prefetch. Addresses are line-aligned.
type Prefetcher interface {
	// Observe is called for each demand access with the line-aligned
	// address, the PC of the load/store, and whether the access missed.
	// It returns line addresses to prefetch (possibly none). The slice
	// aliases a scratch array owned by the prefetcher: it is valid only
	// until the next Observe on the same prefetcher, so callers consume
	// it at once and never retain it.
	Observe(pc, lineAddr uint64, miss bool) []uint64
}

// tableKey is the key the stride and GHB tables index by the PC of the
// demand access that trains them: an entry is (tableKey(pc) & (entries-1)).
func tableKey(pc uint64) uint64 { return pc >> 2 }

// Bank owns the state of one prefetcher of every kind, so a recycled cache
// level can switch kinds and table geometries without allocating: tables
// grow to the largest geometry seen and are re-sliced. Only the prefetcher
// returned by the latest Reset is live.
type Bank struct {
	next    nextLine
	stride  stride
	ghb     ghb
	spatial spatial
}

// Reset validates cfg and returns the bank's prefetcher of cfg.Kind in its
// initial (untrained) state. lineSize is in bytes.
func (b *Bank) Reset(cfg Config, lineSize int) (Prefetcher, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ls := uint64(lineSize)
	switch cfg.Kind {
	case KindNone:
		return nonePf{}, nil
	case KindNextLine:
		b.next.cfg, b.next.line = cfg, ls
		return &b.next, nil
	case KindStride:
		b.stride.reset(cfg, ls)
		return &b.stride, nil
	case KindGHB:
		b.ghb.reset(cfg, ls)
		return &b.ghb, nil
	case KindSpatial:
		b.spatial.reset(cfg, ls)
		return &b.spatial, nil
	}
	return nil, fmt.Errorf("prefetch: unreachable kind %q", cfg.Kind)
}

// New builds a prefetcher; cfg must be valid. lineSize is in bytes.
func New(cfg Config, lineSize int) (Prefetcher, error) {
	return new(Bank).Reset(cfg, lineSize)
}

type nonePf struct{}

func (nonePf) Observe(_, _ uint64, _ bool) []uint64 { return nil }

// nextLine prefetches the next Degree lines after each trigger.
type nextLine struct {
	cfg  Config
	line uint64
	out  [maxDegree]uint64
}

func (p *nextLine) Observe(_, lineAddr uint64, miss bool) []uint64 {
	if !miss && !p.cfg.OnHit {
		return nil
	}
	out := p.out[:0]
	for d := 1; d <= p.cfg.Degree; d++ {
		out = append(out, lineAddr+uint64(p.cfg.Distance+d-1)*p.line)
	}
	return out
}

// stride is a PC-indexed stride prefetcher: a reference prediction table
// keyed by load PC tracking last address, stride, and a 2-bit confidence.
type stride struct {
	cfg  Config
	line uint64
	mask uint64
	tags []uint64
	last []uint64
	strd []int64
	conf []uint8
	out  [maxDegree]uint64
}

func (p *stride) reset(cfg Config, line uint64) {
	n := cfg.TableEntries
	p.cfg, p.line, p.mask = cfg, line, uint64(n-1)
	p.tags, p.last = recycle.Zeroed(p.tags, n), recycle.Zeroed(p.last, n)
	p.strd, p.conf = recycle.Zeroed(p.strd, n), recycle.Zeroed(p.conf, n)
}

func (p *stride) Observe(pc, lineAddr uint64, miss bool) []uint64 {
	if !miss && !p.cfg.OnHit {
		return nil
	}
	i := tableKey(pc) & p.mask
	if p.tags[i] != pc {
		p.tags[i] = pc
		p.last[i] = lineAddr
		p.strd[i] = 0
		p.conf[i] = 0
		return nil
	}
	s := int64(lineAddr) - int64(p.last[i])
	p.last[i] = lineAddr
	if s == 0 {
		return nil
	}
	if s == p.strd[i] {
		if p.conf[i] < 3 {
			p.conf[i]++
		}
	} else {
		p.strd[i] = s
		if p.conf[i] > 0 {
			p.conf[i]--
		}
		return nil
	}
	if p.conf[i] < 2 {
		return nil
	}
	out := p.out[:0]
	for d := 0; d < p.cfg.Degree; d++ {
		a := int64(lineAddr) + s*int64(p.cfg.Distance+d)
		if a > 0 {
			out = append(out, uint64(a))
		}
	}
	return out
}

// ghb is a global history buffer prefetcher (G/DC: global miss history,
// delta-correlation localized by PC index table).
type ghb struct {
	cfg     Config
	line    uint64
	mask    uint64
	index   []int // PC hash -> most recent GHB slot (-1 none)
	bufAddr []uint64
	bufPrev []int // previous slot for same PC chain (-1 none)
	head    int
	hist    [3]uint64
	out     [maxDegree]uint64
}

func (g *ghb) reset(cfg Config, line uint64) {
	g.cfg, g.line, g.mask, g.head = cfg, line, uint64(cfg.TableEntries-1), 0
	g.index = recycle.Filled(g.index, cfg.TableEntries, -1)
	g.bufPrev = recycle.Filled(g.bufPrev, cfg.GHBEntries, -1)
	// Slots are written before any chain can reach them.
	g.bufAddr = recycle.Slice(g.bufAddr, cfg.GHBEntries)
}

// chain walks the per-PC linked list through the GHB, newest first, into
// g.hist and returns how many line addresses it found (at most len(g.hist)).
func (g *ghb) chain(slot int) int {
	n := 0
	for slot >= 0 && n < len(g.hist) && n < g.cfg.GHBEntries {
		g.hist[n] = g.bufAddr[slot]
		slot = g.bufPrev[slot]
		n++
	}
	return n
}

func (g *ghb) Observe(pc, lineAddr uint64, miss bool) []uint64 {
	if !miss && !g.cfg.OnHit {
		return nil
	}
	i := tableKey(pc) & g.mask
	prev := g.index[i]
	slot := g.head
	if g.head++; g.head == g.cfg.GHBEntries {
		g.head = 0
	}
	g.bufAddr[slot] = lineAddr
	// Invalidate index entries that pointed at the overwritten slot by
	// bounding chain walks with an age check (see chain).
	g.bufPrev[slot] = prev
	g.index[i] = slot

	if g.chain(slot) < len(g.hist) {
		return nil
	}
	d1 := int64(g.hist[0]) - int64(g.hist[1])
	d2 := int64(g.hist[1]) - int64(g.hist[2])
	if d1 != d2 || d1 == 0 {
		return nil
	}
	out := g.out[:0]
	for d := 0; d < g.cfg.Degree; d++ {
		a := int64(lineAddr) + d1*int64(g.cfg.Distance+d)
		if a > 0 {
			out = append(out, uint64(a))
		}
	}
	return out
}

// spatial models an undisclosed region-based prefetcher: on two misses
// within the same 4 KB region it fetches the region's subsequent lines
// aggressively. It stands in for the real A72's prefetch behaviour that the
// public model cannot exactly reproduce.
type spatial struct {
	cfg    Config
	line   uint64
	recent map[uint64]uint64 // region -> last line seen in region
	order  []uint64          // tracked regions, oldest first
	out    [MaxTargets]uint64
}

// spatialRegions bounds the regions a spatial prefetcher tracks; past it
// the older half is forgotten.
const spatialRegions = 1024

func (p *spatial) reset(cfg Config, line uint64) {
	p.cfg, p.line = cfg, line
	if p.recent == nil {
		p.recent = make(map[uint64]uint64)
	}
	clear(p.recent)
	p.order = recycle.Slice(p.order, spatialRegions+1)[:0]
}

func (p *spatial) Observe(_, lineAddr uint64, miss bool) []uint64 {
	if !miss && !p.cfg.OnHit {
		return nil
	}
	region := lineAddr >> 12
	last, seen := p.recent[region]
	p.recent[region] = lineAddr
	if !seen {
		// Forget in first-seen order, never in map order: a replay must be
		// a function of its configuration and trace alone.
		p.order = append(p.order, region)
		if len(p.order) > spatialRegions {
			for _, r := range p.order[:spatialRegions/2] {
				delete(p.recent, r)
			}
			p.order = p.order[:copy(p.order, p.order[spatialRegions/2:])]
		}
	}
	if !seen || last == lineAddr {
		return nil
	}
	dir := int64(p.line)
	if lineAddr < last {
		dir = -dir
	}
	out := p.out[:0]
	for d := 1; d <= p.cfg.Degree*2; d++ {
		a := int64(lineAddr) + dir*int64(d)
		if a > 0 && uint64(a)>>12 == region {
			out = append(out, uint64(a))
		}
	}
	return out
}
