// Package branch implements the branch prediction unit of the racesim core
// models: direction predictors (static, bimodal, gshare, tournament), a
// set-associative branch target buffer, a return-address stack, and an
// optional indirect-target predictor.
//
// The indirect predictor is the component the paper's validation loop adds
// after micro-benchmark CS1 exposes an abstraction error in the baseline
// model (Sec. IV-B): it is off in the initial public model and offered to
// the tuner as a configuration choice afterwards.
package branch

import (
	"fmt"

	"racesim/internal/recycle"
)

// Kind selects a direction predictor.
type Kind string

// Direction predictor kinds.
const (
	KindStatic     Kind = "static"     // backward taken, forward not-taken
	KindBimodal    Kind = "bimodal"    // PC-indexed 2-bit counters
	KindGShare     Kind = "gshare"     // global history XOR PC, 2-bit counters
	KindTournament Kind = "tournament" // bimodal vs gshare with a chooser
)

// Kinds lists all supported direction predictor kinds. It is also the
// tuner's list of values for branch.kind (internal/sim/space.go), in
// sampling order: reordering it re-pins every tuning race.
var Kinds = []Kind{KindStatic, KindBimodal, KindGShare, KindTournament}

// Config configures a prediction unit.
type Config struct {
	Kind            Kind
	BimodalEntries  int // power of two
	GShareEntries   int // power of two
	HistoryBits     int
	ChooserEntries  int // power of two (tournament)
	BTBEntries      int
	BTBAssoc        int
	RASEntries      int
	IndirectEnabled bool
	IndirectEntries int // power of two
	IndirectHistory int // path history bits folded into the index
}

// DefaultConfig returns a small, plausible unit (used as a best-guess
// starting point in the public models).
func DefaultConfig() Config {
	return Config{
		Kind:            KindBimodal,
		BimodalEntries:  2048,
		GShareEntries:   2048,
		HistoryBits:     8,
		ChooserEntries:  2048,
		BTBEntries:      256,
		BTBAssoc:        2,
		RASEntries:      8,
		IndirectEnabled: false,
		IndirectEntries: 256,
		IndirectHistory: 4,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	pow2 := func(name string, v int) error {
		if v <= 0 || v&(v-1) != 0 {
			return fmt.Errorf("branch: %s = %d must be a positive power of two", name, v)
		}
		return nil
	}
	switch c.Kind {
	case KindStatic:
	case KindBimodal:
		if err := pow2("BimodalEntries", c.BimodalEntries); err != nil {
			return err
		}
	case KindGShare:
		if err := pow2("GShareEntries", c.GShareEntries); err != nil {
			return err
		}
	case KindTournament:
		if err := pow2("BimodalEntries", c.BimodalEntries); err != nil {
			return err
		}
		if err := pow2("GShareEntries", c.GShareEntries); err != nil {
			return err
		}
		if err := pow2("ChooserEntries", c.ChooserEntries); err != nil {
			return err
		}
	default:
		return fmt.Errorf("branch: unknown predictor kind %q", c.Kind)
	}
	if c.BTBEntries <= 0 || c.BTBAssoc <= 0 || c.BTBEntries%c.BTBAssoc != 0 {
		return fmt.Errorf("branch: BTB %d entries / %d ways invalid", c.BTBEntries, c.BTBAssoc)
	}
	if c.RASEntries < 0 {
		return fmt.Errorf("branch: RASEntries = %d", c.RASEntries)
	}
	if c.IndirectEnabled {
		if err := pow2("IndirectEntries", c.IndirectEntries); err != nil {
			return err
		}
	}
	return nil
}

// DirectionPredictor predicts conditional branch directions.
type DirectionPredictor interface {
	Predict(pc uint64) bool
	Update(pc uint64, taken bool)
}

// --- static ---

type static struct{}

func (static) Predict(pc uint64) bool { return false } // refined by Unit using target
func (static) Update(uint64, bool)    {}

// --- bimodal ---

type bimodal struct {
	ctr  []uint8
	mask uint64
}

func (b *bimodal) reset(entries int) {
	b.ctr = recycle.Filled(b.ctr, entries, 1) // weakly not-taken
	b.mask = uint64(entries - 1)
}

func (b *bimodal) idx(pc uint64) uint64 { return PCKey(pc) & b.mask }

func (b *bimodal) Predict(pc uint64) bool { return b.ctr[b.idx(pc)] >= 2 }

func (b *bimodal) Update(pc uint64, taken bool) {
	i := b.idx(pc)
	if taken && b.ctr[i] < 3 {
		b.ctr[i]++
	} else if !taken && b.ctr[i] > 0 {
		b.ctr[i]--
	}
}

// --- gshare ---

type gshare struct {
	ctr     []uint8
	mask    uint64
	hist    uint64
	histMax uint64
}

func (g *gshare) reset(entries, histBits int) {
	*g = gshare{
		ctr:     recycle.Filled(g.ctr, entries, 1),
		mask:    uint64(entries - 1),
		histMax: 1<<histBits - 1,
	}
}

func (g *gshare) idx(pc uint64) uint64 { return GShareKey(pc, g.hist) & g.mask }

func (g *gshare) Predict(pc uint64) bool { return g.ctr[g.idx(pc)] >= 2 }

func (g *gshare) Update(pc uint64, taken bool) {
	i := g.idx(pc)
	if taken && g.ctr[i] < 3 {
		g.ctr[i]++
	} else if !taken && g.ctr[i] > 0 {
		g.ctr[i]--
	}
	g.hist = GShareHistory(g.hist, g.histMax, taken)
}

// --- tournament ---

type tournament struct {
	bim     *bimodal
	gsh     *gshare
	chooser []uint8 // >=2 selects gshare
	mask    uint64
}

// reset arbitrates between bim and gsh, which the caller has reset.
func (t *tournament) reset(bim *bimodal, gsh *gshare, entries int) {
	t.bim, t.gsh = bim, gsh
	t.chooser = recycle.Filled(t.chooser, entries, 2) // weakly prefer gshare
	t.mask = uint64(entries - 1)
}

func (t *tournament) Predict(pc uint64) bool {
	if t.chooser[PCKey(pc)&t.mask] >= 2 {
		return t.gsh.Predict(pc)
	}
	return t.bim.Predict(pc)
}

func (t *tournament) Update(pc uint64, taken bool) {
	i := PCKey(pc) & t.mask
	bp := t.bim.Predict(pc)
	gp := t.gsh.Predict(pc)
	if bp != gp {
		if gp == taken && t.chooser[i] < 3 {
			t.chooser[i]++
		} else if bp == taken && t.chooser[i] > 0 {
			t.chooser[i]--
		}
	}
	t.bim.Update(pc, taken)
	t.gsh.Update(pc, taken)
}
