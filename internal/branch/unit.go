package branch

import (
	"racesim/internal/isa"
	"racesim/internal/recycle"
)

// btb is a set-associative branch target buffer with LRU replacement.
// Ways fill in order — a set's filled ways are a prefix, since nothing
// empties one — and a full set evicts the way touched longest ago.
type btb struct {
	sets  int
	mask  uint64 // btbMask(sets)
	assoc int
	tags  []uint64 // sets*assoc; 0 = invalid
	tgts  []uint64
	stamp []uint64 // when each way was last touched, in clock ticks
	clock uint64
}

func (b *btb) reset(entries, assoc int) {
	sets := entries / assoc
	*b = btb{
		sets:  sets,
		mask:  btbMask(sets),
		assoc: assoc,
		tags:  recycle.Zeroed(b.tags, entries),
		tgts:  recycle.Slice(b.tgts, entries),  // read only under a matching tag
		stamp: recycle.Slice(b.stamp, entries), // read only in a full set, every way of which was touched since
	}
}

func (b *btb) set(pc uint64) int { return btbSet(pc, b.mask, b.sets) }

// access looks pc up, touching its way on a hit, and when taken records
// target for it: in its own way, else in the first empty way, else in
// place of the least recently touched. One scan finds the hit, the empty
// way or the victim.
func (b *btb) access(pc, target uint64, taken bool) (pred uint64, hit bool) {
	base := b.set(pc) * b.assoc
	victim := base
scan:
	for i := base; i < base+b.assoc; i++ {
		switch b.tags[i] {
		case pc:
			pred = b.tgts[i]
			if taken {
				b.tgts[i] = target
			}
			b.clock++
			b.stamp[i] = b.clock
			return pred, true
		case 0: // the empty ways follow the filled ones
			victim = i
			break scan
		}
		if b.stamp[i] < b.stamp[victim] {
			victim = i
		}
	}
	if taken {
		b.tags[victim], b.tgts[victim] = pc, target
		b.clock++
		b.stamp[victim] = b.clock
	}
	return 0, false
}

// indirect is a tagged target cache indexed by PC hashed with recent
// indirect-target path history.
type indirect struct {
	tags []uint64
	tgts []uint64
	mask uint64
	hist uint64
	bits int
}

func (p *indirect) reset(entries, histBits int) {
	*p = indirect{
		tags: recycle.Zeroed(p.tags, entries),
		tgts: recycle.Slice(p.tgts, entries), // read only under a matching tag
		mask: uint64(entries - 1),
		bits: histBits,
	}
}

func (p *indirect) idx(pc uint64) uint64 { return IndirectKey(pc, p.hist, p.bits) & p.mask }

func (p *indirect) lookup(pc uint64) (uint64, bool) {
	i := p.idx(pc)
	if p.tags[i] == pc {
		return p.tgts[i], true
	}
	return 0, false
}

func (p *indirect) update(pc, target uint64) {
	i := p.idx(pc)
	p.tags[i] = pc
	p.tgts[i] = target
	p.hist = PathHistory(p.hist, target)
}

// ras is a return address stack.
type ras struct {
	stack []uint64
	top   int
	size  int
}

func (r *ras) reset(entries int) {
	*r = ras{stack: recycle.Zeroed(r.stack, max(entries, 1)), size: entries}
}

func (r *ras) push(addr uint64) {
	if r.size == 0 {
		return
	}
	r.top = (r.top + 1) % r.size
	r.stack[r.top] = addr
}

func (r *ras) pop() (uint64, bool) {
	if r.size == 0 {
		return 0, false
	}
	v := r.stack[r.top]
	r.top = (r.top - 1 + r.size) % r.size
	return v, v != 0
}

// Stats accumulates prediction statistics.
type Stats struct {
	Branches      uint64 // conditional + unconditional direct
	DirectionMiss uint64
	BTBMiss       uint64 // taken branches whose target was not in the BTB
	Indirect      uint64
	IndirectMiss  uint64
	Returns       uint64
	ReturnMiss    uint64
	Calls         uint64
}

// Mispredicts returns the total number of full pipeline-flush events.
func (s *Stats) Mispredicts() uint64 { return s.DirectionMiss + s.IndirectMiss + s.ReturnMiss }

// MPKI returns mispredictions per kilo-instruction given a total
// instruction count.
func (s *Stats) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.Mispredicts()) / float64(instructions) * 1000
}

// Outcome describes how the unit handled one branch.
type Outcome struct {
	// Mispredict is a wrong direction or wrong predicted target: the
	// pipeline restarts from the redirect stage (full penalty).
	Mispredict bool
	// TargetMiss is a correct direction but a BTB miss on a taken direct
	// branch: the front-end refetches after decode (shorter bubble).
	TargetMiss bool
}

// Unit is a complete branch prediction unit. It owns the tables of every
// direction-predictor kind so Reset can switch kinds without allocating;
// dir is the configured one. A Unit must not be copied (dir, ind and the
// tournament's components point into it).
type Unit struct {
	cfg       Config
	dir       DirectionPredictor
	dirStatic bool // dir is the static predictor (checked per branch otherwise)
	bim       bimodal
	gsh       gshare
	tour      tournament
	btb       btb
	indirect  indirect
	ind       *indirect // &indirect when cfg.IndirectEnabled, else nil
	ras       ras
	stats     Stats
}

// NewUnit builds a unit from cfg; cfg must be valid.
func NewUnit(cfg Config) (*Unit, error) {
	u := new(Unit)
	if err := u.Reset(cfg); err != nil {
		return nil, err
	}
	return u, nil
}

// Reset makes u an untrained unit of cfg — the state NewUnit returns, and
// the only definition of it — reusing the tables u already owns (they grow
// to the largest geometry u has served).
func (u *Unit) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	u.cfg, u.stats = cfg, Stats{}
	u.dirStatic = false
	switch cfg.Kind {
	case KindBimodal:
		u.bim.reset(cfg.BimodalEntries)
		u.dir = &u.bim
	case KindGShare:
		u.gsh.reset(cfg.GShareEntries, cfg.HistoryBits)
		u.dir = &u.gsh
	case KindTournament:
		u.bim.reset(cfg.BimodalEntries)
		u.gsh.reset(cfg.GShareEntries, cfg.HistoryBits)
		u.tour.reset(&u.bim, &u.gsh, cfg.ChooserEntries)
		u.dir = &u.tour
	default:
		u.dir, u.dirStatic = static{}, true
	}
	u.btb.reset(cfg.BTBEntries, cfg.BTBAssoc)
	u.ras.reset(cfg.RASEntries)
	u.ind = nil
	if cfg.IndirectEnabled {
		u.indirect.reset(cfg.IndirectEntries, cfg.IndirectHistory)
		u.ind = &u.indirect
	}
	return nil
}

// Stats returns accumulated statistics.
func (u *Unit) Stats() Stats { return u.stats }

// AccessOutcome predicts the branch of class cls and opcode op at pc,
// updates all structures with its actual outcome (taken, to target), and
// reports the timing consequence. It takes the branch's fields rather than
// an isa.Inst, so decoded trace replay drives the unit without
// materializing an instruction per dynamic branch.
func (u *Unit) AccessOutcome(cls isa.Class, op isa.Op, pc, target uint64, taken bool) Outcome {
	switch cls {
	case isa.ClassBranch:
		u.stats.Branches++
		var predTaken bool
		if op == isa.OpB {
			predTaken = true // unconditional: direction known at decode
		} else if u.dirStatic {
			predTaken = target <= pc // backward taken, forward not-taken
		} else {
			predTaken = u.dir.Predict(pc)
		}
		predTarget, btbHit := u.btb.access(pc, target, taken)
		u.dir.Update(pc, taken)
		if predTaken != taken {
			u.stats.DirectionMiss++
			return Outcome{Mispredict: true}
		}
		if taken && (!btbHit || predTarget != target) {
			u.stats.BTBMiss++
			return Outcome{TargetMiss: true}
		}
		return Outcome{}

	case isa.ClassCall:
		u.stats.Calls++
		u.ras.push(pc + isa.InstSize)
		if _, btbHit := u.btb.access(pc, target, true); !btbHit {
			u.stats.BTBMiss++
			return Outcome{TargetMiss: true}
		}
		return Outcome{}

	case isa.ClassRet:
		u.stats.Returns++
		pred, ok := u.ras.pop()
		if !ok || pred != target {
			u.stats.ReturnMiss++
			return Outcome{Mispredict: true}
		}
		return Outcome{}

	case isa.ClassBranchInd:
		u.stats.Indirect++
		var pred uint64
		var hit bool
		if u.ind != nil {
			pred, hit = u.ind.lookup(pc)
			u.ind.update(pc, target)
		} else {
			pred, hit = u.btb.access(pc, target, true)
		}
		if !hit || pred != target {
			u.stats.IndirectMiss++
			return Outcome{Mispredict: true}
		}
		return Outcome{}
	}
	return Outcome{}
}
