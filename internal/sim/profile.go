package sim

import (
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"

	"racesim/internal/branch"
	"racesim/internal/core"
	"racesim/internal/isa"
	"racesim/internal/trace"
)

// Profile is what one decoded trace lets its replays read: which
// instruction classes it executes, how far its calls and returns move the
// return-address stack, how many pages it touches, and, for every branch
// unit table the tuner sizes, the smallest size at which no two of the
// keys the trace indexes it by share an entry. Each entry bounds the
// tunables that name it (ParamDef.Reads); TraceCanonical merges the values
// a trace cannot tell apart. It depends on the decode alone and is
// computed once per decode (ProfileOf).
type Profile struct {
	// Classes is the trace's class histogram (core.ClassHistogram).
	Classes [isa.NumClasses]uint64
	// CallSpan is how many return-address-stack positions the trace's
	// calls and returns move the top through (0 without either): a stack
	// of at least that many entries pops what an unbounded one pops.
	CallSpan int
	// CodePages and DataPages count the distinct pages, of ProfilePageBytes,
	// of the trace's PCs and of its loads' and stores' addresses. They
	// bound what an ITLB and a DTLB see for any page at least that large.
	CodePages, DataPages int
	// Bimodal is the smallest power of two at which no two PCs of the
	// trace's direct branches share a bimodal or chooser counter; 0 when
	// none up to maxTable is.
	Bimodal int
	// GShare is that size for gshare's keys, under each listed
	// branch.history_bits.
	GShare []SizeAt
	// BTB lists the listed (entries, assoc) pairs of which no set receives
	// more of the trace's branch, call and indirect-branch PCs than it has
	// ways, in table order; the first one stands for them all.
	BTB []BTBGeometry
	// Indirect is the table size for the indirect predictor's keys, under
	// each listed branch.indirect_history.
	Indirect []SizeAt
}

// SizeAt is a table size bound under one value of the history length the
// table's keys depend on.
type SizeAt struct{ History, Size int }

// BTBGeometry is one (entries, assoc) pair of the BTB.
type BTBGeometry struct{ Entries, Assoc int }

// ProfilePageBytes is the page size the profile counts at: the presets'.
// A larger page holds whole smaller ones, so the counts bound every
// configuration whose pages are at least as large; TraceCanonical leaves
// the others alone.
const ProfilePageBytes = 4096

// maxTable bounds the table sizes a profile looks at: the largest any
// tunable lists (branch.bimodal_entries and branch.gshare_entries, 8 192).
// A larger table that no two keys collide in is left unmerged.
const maxTable = 1 << 13

// ProfileOf returns d's read profile, computing it on first use. It is
// memoized beside d's behavior table and class histogram and shared, like
// them, by every replay of d.
func ProfileOf(d *trace.Decoded) *Profile {
	dv := derivedOf(d)
	dv.profileOnce.Do(func() { dv.profile = readProfile(d, dv.behav, &dv.classes) })
	return dv.profile
}

// readProfile walks d once, collecting the pages it touches as sets, the
// BTB's keys as a key list, and the events of its branches, whose keys
// depend on the history before them, then bounds each table.
func readProfile(d *trace.Decoded, behav []core.Behavior, hist *[isa.NumClasses]uint64) *Profile {
	p := &Profile{Classes: *hist}
	pageShift := uint(bits.TrailingZeros(ProfilePageBytes))
	b := bounders.Get().(*bounder)
	defer bounders.Put(b)

	code, data := map[uint64]struct{}{}, map[uint64]struct{}{}
	keys, btb := &b.lists[0], &b.lists[1]
	btb.reset()
	// The events of the direct and the indirect branches, in trace order.
	dir := make([]uint32, 0, hist[isa.ClassBranch])
	ind := make([]uint32, 0, hist[isa.ClassBranchInd])
	depth, lo, hi := 0, 0, 0
	calls := false
	lastCode, lastData := ^uint64(0), ^uint64(0)
	for i, id := range d.IDs {
		pc := d.PC[i]
		if pg := pc >> pageShift; pg != lastCode {
			code[pg], lastCode = struct{}{}, pg
		}
		switch behav[id].Cls {
		case isa.ClassLoad, isa.ClassStore:
			if pg := d.MemAddr[i] >> pageShift; pg != lastData {
				data[pg], lastData = struct{}{}, pg
			}
		case isa.ClassBranch:
			dir = append(dir, uint32(i))
			btb.add(pc)
		case isa.ClassCall:
			btb.add(pc)
			depth++
			hi, calls = max(hi, depth), true
		case isa.ClassRet:
			depth--
			lo, calls = min(lo, depth), true
		case isa.ClassBranchInd:
			btb.add(pc)
			ind = append(ind, uint32(i))
		}
	}
	if calls {
		p.CallSpan = hi - lo + 1
	}
	p.CodePages, p.DataPages = len(code), len(data)

	keys.reset()
	for _, i := range dir {
		keys.add(branch.PCKey(d.PC[i]))
	}
	p.Bimodal = b.bound(keys.keys)
	for _, h := range listed("branch.history_bits") {
		keys.reset()
		var hist uint64
		for _, i := range dir {
			keys.add(branch.GShareKey(d.PC[i], hist))
			hist = branch.GShareHistory(hist, 1<<h-1, d.Taken(int(i)))
		}
		p.GShare = append(p.GShare, SizeAt{h, b.bound(keys.keys)})
	}
	for _, h := range listed("branch.indirect_history") {
		keys.reset()
		var hist uint64
		for _, i := range ind {
			keys.add(branch.IndirectKey(d.PC[i], hist, h))
			hist = branch.PathHistory(hist, d.Target[i])
		}
		p.Indirect = append(p.Indirect, SizeAt{h, b.bound(keys.keys)})
	}

	slices.Sort(btb.keys)
	pcs := slices.Compact(btb.keys)
	if len(pcs) == 0 || pcs[0] != 0 { // a PC of 0 reads as an empty way
		for _, e := range listed("branch.btb_entries") {
			for _, a := range listed("branch.btb_assoc") {
				if e%a == 0 && b.btbFits(pcs, e/a, a) {
					p.BTB = append(p.BTB, BTBGeometry{e, a})
				}
			}
		}
	}
	return p
}

// keyList collects a table's keys, dropping most repeats: a key is kept
// unless it was the last one kept in its slot of a small direct-mapped
// filter. A trace runs a few hundred static instructions many times over,
// so the list stays near the number of distinct keys; the repeats that
// get through cost bound and btbFits's sort time, nothing else.
type keyList struct {
	keys   []uint64
	filter [1024]uint64 // per slot, 1 + the key kept last; 0 when none
}

func (l *keyList) reset() {
	l.keys = l.keys[:0]
	clear(l.filter[:])
}

func (l *keyList) add(k uint64) {
	slot := &l.filter[(k^k>>10^k>>20)%uint64(len(l.filter))]
	if *slot == k+1 {
		return
	}
	*slot = k + 1
	l.keys = append(l.keys, k)
}

// bounder holds the scratch arrays of a profile: key lists, and for
// bound, for each of maxTable slots the key that took it and whether one
// has, and for btbFits per-set counts.
type bounder struct {
	lists [2]keyList
	slot  [maxTable]uint64
	used  [maxTable / 64]uint64
	count []int
}

// bounders recycles bounders across profiles.
var bounders = sync.Pool{New: func() any { return new(bounder) }}

// bound returns the smallest power of two n at which no two distinct keys
// agree in their low log2(n) bits, or 0 when no n up to maxTable is. keys
// may repeat: a slot collides only with a key other than the one that took
// it.
func (b *bounder) bound(keys []uint64) int {
	for n := 1; n <= maxTable; n <<= 1 {
		used := b.used[:(n+63)/64]
		clear(used)
		ok := true
		for _, k := range keys {
			i := k & uint64(n-1)
			if used[i/64]>>(i%64)&1 == 0 {
				used[i/64] |= 1 << (i % 64)
				b.slot[i] = k
			} else if b.slot[i] != k {
				ok = false
				break
			}
		}
		if ok {
			return n
		}
	}
	return 0
}

// btbFits reports whether no set of a BTB of sets sets and assoc ways
// receives more than assoc of pcs, which are distinct.
func (b *bounder) btbFits(pcs []uint64, sets, assoc int) bool {
	if len(b.count) < sets {
		b.count = make([]int, sets)
	}
	count := b.count[:sets]
	clear(count)
	for _, pc := range pcs {
		s := branch.BTBSet(pc, sets)
		if count[s]++; count[s] > assoc {
			return false
		}
	}
	return true
}

// listed returns the values the tunable name lists under either core kind,
// in table order, without repeats.
func listed(name string) []int {
	var out []int
	for _, kind := range []core.Kind{core.InOrder, core.OutOfOrder} {
		for _, d := range Params(kind) {
			if d.Name != name {
				continue
			}
			for _, v := range d.Values {
				if n, err := strconv.Atoi(v); err == nil && !slices.Contains(out, n) {
					out = append(out, n)
				}
			}
		}
	}
	return out
}

// sizeAt returns the bound under history h, or 0.
func sizeAt(s []SizeAt, h int) int {
	for _, x := range s {
		if x.History == h {
			return x.Size
		}
	}
	return 0
}

// Read names the entry of a trace's read profile that bounds what a
// tunable's field can change on that trace (ParamDef.Reads). The zero Read
// bounds nothing: every trace may tell every value apart.
type Read struct {
	entry   readEntry
	classes uint32 // readClasses: bit c stands for isa.Class c
}

type readEntry uint8

const (
	readAny          readEntry = iota
	readClasses                // read by events of the classes alone
	readIndirect               // read only if the trace has indirect branches
	readCallSpan               // Profile.CallSpan
	readCodePages              // Profile.CodePages
	readDataPages              // Profile.DataPages
	readBranchPCs              // Profile.Bimodal
	readGShareKeys             // Profile.GShare
	readBTBSets                // Profile.BTB
	readIndirectKeys           // Profile.Indirect
)

var readNames = [...]string{
	readAny: "-", readClasses: "classes", readIndirect: "indirect", readCallSpan: "call-span",
	readCodePages: "code-pages", readDataPages: "data-pages", readBranchPCs: "branch-pcs",
	readGShareKeys: "gshare-keys", readBTBSets: "btb-sets", readIndirectKeys: "indirect-keys",
}

// classes is the Read of a field only events of cs read.
func classes(cs ...isa.Class) Read {
	r := Read{entry: readClasses}
	for _, c := range cs {
		r.classes |= 1 << c
	}
	return r
}

// String names the profile entry, with the classes of a class read
// ("classes:fp_add,fp_mul"); the zero Read is "-".
func (r Read) String() string {
	if r.entry != readClasses {
		return readNames[r.entry]
	}
	var names []string
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		if r.classes&(1<<c) != 0 {
			names = append(names, c.String())
		}
	}
	return readNames[readClasses] + ":" + strings.Join(names, ",")
}

// unread reports whether no event of the trace p profiles reads a field of
// Read r, whatever its value.
func (r Read) unread(p *Profile) bool {
	switch r.entry {
	case readClasses:
		for c := range p.Classes {
			if r.classes&(1<<c) != 0 && p.Classes[c] != 0 {
				return false
			}
		}
		return true
	case readIndirect:
		return p.Classes[isa.ClassBranchInd] == 0
	}
	return false
}

// bound returns the value that stands, on the trace p profiles, for every
// value at or above it of a field of Read r in c, and whether there is
// one: the trace cannot tell any two such values apart (see branch's table
// keys and the TLB).
func (r Read) bound(c *Config, p *Profile) (int, bool) {
	switch r.entry {
	case readCallSpan:
		return p.CallSpan, true
	case readCodePages:
		return p.CodePages, c.Mem.PageBytes >= ProfilePageBytes
	case readDataPages:
		return p.DataPages, c.Mem.PageBytes >= ProfilePageBytes
	case readBranchPCs:
		return p.Bimodal, p.Bimodal > 0
	case readGShareKeys:
		n := sizeAt(p.GShare, c.Branch.HistoryBits)
		return n, n > 0
	case readIndirectKeys:
		n := sizeAt(p.Indirect, c.Branch.IndirectHistory)
		return n, n > 0
	}
	return 0, false
}

// TraceCanonical returns the form of cfg that stands, on the trace p
// profiles, for every configuration that trace cannot tell from cfg: its
// canonical form (Canonical) with every tunable no event of the trace
// reads at its first value, every table size, TLB size and return-address
// stack depth at or above what the trace can fill set to that bound, and a
// BTB geometry that never evicts on the trace set to the first listed one
// that does not. Configurations with one TraceCanonical form on a trace
// simulate identically on it (TestTraceCanonicalNeverChangesResult); like
// Canonical's, the form is for equality only, and nothing is simulated
// under it.
func TraceCanonical(cfg Config, p *Profile) Config {
	defs := Params(cfg.Kind)
	// branch.indirect, a condition's parent, goes first: canonicalize then
	// finds the fields it conditions unread.
	for i := range defs {
		if d := &defs[i]; d.Reads.unread(p) {
			d.field.setInt(&cfg, d.first)
		}
	}
	canonicalize(&cfg, false)
	if g := (BTBGeometry{cfg.Branch.BTBEntries, cfg.Branch.BTBAssoc}); len(p.BTB) > 0 && slices.Contains(p.BTB, g) {
		cfg.Branch.BTBEntries, cfg.Branch.BTBAssoc = p.BTB[0].Entries, p.BTB[0].Assoc
	}
	for i := range defs {
		d := &defs[i]
		if !d.Active(&cfg) {
			continue
		}
		if b, ok := d.Reads.bound(&cfg, p); ok && d.field.int(&cfg) >= b {
			d.field.setInt(&cfg, b)
		}
	}
	return cfg
}
