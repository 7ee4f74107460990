package branch

// Table keys.
//
// Every table of the unit is indexed by a key reduced to the table's size:
// the bimodal counters and the tournament's chooser by PCKey, gshare by
// GShareKey under the global history GShareHistory keeps, the BTB by PCKey
// modulo its sets (BTBSet) and the indirect predictor by IndirectKey under
// the path history PathHistory keeps. The keys and the histories depend on
// the trace alone — every conditional and direct branch (ClassBranch)
// trains the direction predictors and moves the global history, every
// indirect branch moves the path history — and never on a table's size.
// The tables start out uniform (every counter, tag and target the same),
// so what a table of n entries predicts depends only on which of the
// trace's keys share an entry. Hence:
//
//   - A direct-mapped table of n entries (a power of two) in which no two
//     of the trace's distinct keys agree in their low log2(n) bits gives
//     every key an entry of its own; so does every larger power of two,
//     and all of them predict alike on that trace.
//   - A BTB of any (entries, ways) whose sets each receive at most ways
//     distinct tagged PCs never evicts: ways fill in order (btb.access takes
//     the matching or first empty way), so it hits exactly on the PCs a
//     taken branch, a call or an indirect branch has inserted, with the
//     last target inserted, whatever its geometry. A PC of 0 reads as an
//     empty way and voids the argument.
//   - A return-address stack of n entries is a circular buffer: while the
//     positions a trace's calls and returns move its top through span at
//     most n, no push overwrites a position a later pop reads, and it pops
//     what an unbounded stack pops.
//
// internal/sim's read profile (sim.Profile) computes these bounds from a
// decoded trace with the functions below, and sim.TraceCanonical merges the
// table sizes a trace cannot tell apart.

// PCKey is the key the bimodal counters, the chooser and the BTB's sets are
// indexed by.
func PCKey(pc uint64) uint64 { return pc >> 2 }

// GShareKey is gshare's key for the branch at pc under global history
// hist.
func GShareKey(pc, hist uint64) uint64 { return pc>>2 ^ hist }

// GShareHistory returns the global history after a branch of outcome
// taken, keeping the bits of mask (1<<branch.history_bits - 1).
func GShareHistory(hist, mask uint64, taken bool) uint64 {
	hist = hist << 1 & mask
	if taken {
		hist |= 1
	}
	return hist
}

// IndirectKey is the indirect predictor's key for the branch at pc under
// path history hist, of which it folds in the low historyBits bits.
func IndirectKey(pc, hist uint64, historyBits int) uint64 {
	return pc>>2 ^ hist&(1<<historyBits-1)
}

// PathHistory returns the path history after an indirect branch to target.
// Several target bit ranges are folded so that aligned targets still
// perturb it.
func PathHistory(hist, target uint64) uint64 {
	return hist<<2 ^ (target>>2 ^ target>>12 ^ target>>22)
}

// BTBSet is the set of a BTB with sets sets that holds pc.
func BTBSet(pc uint64, sets int) int { return btbSet(pc, btbMask(sets), sets) }

// btbMask is sets-1 when sets is a power of two, else 0, which selects
// btbSet's modulo.
func btbMask(sets int) uint64 {
	if sets&(sets-1) == 0 {
		return uint64(sets - 1)
	}
	return 0
}

// btbSet is BTBSet with btbMask(sets) worked out once per geometry.
func btbSet(pc, mask uint64, sets int) int {
	if mask != 0 || sets == 1 {
		return int(PCKey(pc) & mask)
	}
	return int(PCKey(pc) % uint64(sets))
}
