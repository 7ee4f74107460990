package branch

import (
	"racesim/internal/isa"
	"racesim/internal/recycle"
)

// btb is a set-associative branch target buffer with LRU replacement.
type btb struct {
	sets  int
	mask  uint64 // sets-1 when sets is a power of two, else 0 (modulo path)
	assoc int
	tags  []uint64 // sets*assoc; 0 = invalid
	tgts  []uint64
	lru   []uint8
}

func (b *btb) reset(entries, assoc int) {
	sets := entries / assoc
	*b = btb{
		sets:  sets,
		assoc: assoc,
		tags:  recycle.Zeroed(b.tags, entries),
		tgts:  recycle.Slice(b.tgts, entries), // read only under a matching tag
		lru:   recycle.Slice(b.lru, entries),
	}
	if sets&(sets-1) == 0 {
		b.mask = uint64(sets - 1)
	}
	// Recency ranks must form a permutation per set (0 = MRU) for touch to
	// age the other ways correctly.
	for i := range b.lru {
		b.lru[i] = uint8(i % assoc)
	}
}

func (b *btb) set(pc uint64) int {
	if b.mask != 0 || b.sets == 1 {
		return int((pc >> 2) & b.mask)
	}
	return int((pc >> 2) % uint64(b.sets))
}

func (b *btb) lookup(pc uint64) (uint64, bool) {
	base := b.set(pc) * b.assoc
	for w := 0; w < b.assoc; w++ {
		if b.tags[base+w] == pc {
			b.touch(base, w)
			return b.tgts[base+w], true
		}
	}
	return 0, false
}

func (b *btb) touch(base, way int) {
	old := b.lru[base+way]
	if old == 0 {
		return // already MRU
	}
	for w := 0; w < b.assoc; w++ {
		if b.lru[base+w] < old {
			b.lru[base+w]++
		}
	}
	b.lru[base+way] = 0
}

func (b *btb) insert(pc, target uint64) {
	base := b.set(pc) * b.assoc
	victim := 0
	for w := 0; w < b.assoc; w++ {
		if b.tags[base+w] == pc || b.tags[base+w] == 0 {
			victim = w
			break
		}
		if b.lru[base+w] > b.lru[base+victim] {
			victim = w
		}
	}
	b.tags[base+victim] = pc
	b.tgts[base+victim] = target
	b.touch(base, victim)
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

func (p *indirect) idx(pc uint64) uint64 {
	h := p.hist & (1<<p.bits - 1)
	return ((pc >> 2) ^ h) & p.mask
}

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
	// Fold several target bit ranges so aligned targets still perturb the
	// path history.
	p.hist = p.hist<<2 ^ (target>>2 ^ target>>12 ^ target>>22)
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
		predTarget, btbHit := u.btb.lookup(pc)
		u.dir.Update(pc, taken)
		if taken {
			u.btb.insert(pc, target)
		}
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
		_, btbHit := u.btb.lookup(pc)
		u.btb.insert(pc, target)
		if !btbHit {
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
			pred, hit = u.btb.lookup(pc)
			u.btb.insert(pc, target)
		}
		if !hit || pred != target {
			u.stats.IndirectMiss++
			return Outcome{Mispredict: true}
		}
		return Outcome{}
	}
	return Outcome{}
}
