package cache

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"perfclone/internal/supervise"
)

// sweepCheckEvery is how many references SweepMisses walks between
// cancellation checks: coarse enough to cost nothing on the hot path,
// fine enough that Ctrl-C interrupts a sweep within milliseconds.
const sweepCheckEvery = 1 << 16

// SweepMisses replays one data-reference stream through every LRU
// configuration in cfgs and returns each configuration's miss count, in
// input order — the numbers one Cache per configuration would report,
// from one stack walk per cache geometry instead of one simulation per
// configuration.
//
// LRU with no invalidation has the inclusion property (Mattson et al.,
// 1970): at a fixed line size and set count, the lines an A-way cache
// holds are always the A most recently used lines of each set, so they
// are a subset of what any wider cache holds. A reference therefore hits
// in every cache whose associativity exceeds its depth in the set's
// recency stack and misses in every other. SweepMisses groups the
// configurations by (line size, set count), keeps one recency stack per
// set at least as deep as the group's widest associativity, bins each
// reference by its stack depth, and counts a configuration's misses as
// the references binned at or beyond its associativity.
//
// Inclusion does not hold for FIFO or random replacement, so a non-LRU
// configuration is an error. Writes do not change LRU order, so the
// stream carries addresses only. SweepMisses polls ctx every
// sweepCheckEvery references, ticking any supervision heartbeat it
// carries, and returns the context's cancellation cause once cancelled.
func SweepMisses(ctx context.Context, addrs []uint64, cfgs []Config) ([]uint64, error) {
	type key struct {
		shift uint
		sets  int
	}
	type member struct {
		group int
		assoc int
	}
	byKey := map[key]int{}
	var groupKeys []key
	var groupWays [][]int
	members := make([]member, len(cfgs))
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if cfg.Replacement != PolicyLRU {
			return nil, fmt.Errorf("cache: %s uses %s replacement; the stack-distance sweep needs LRU, whose inclusion property other policies lack", cfg, cfg.Replacement)
		}
		lines := cfg.Size / cfg.LineSize
		assoc := cfg.Assoc
		if assoc == 0 {
			assoc = lines
		}
		k := key{log2(uint64(cfg.LineSize)), lines / assoc}
		g, ok := byKey[k]
		if !ok {
			g = len(groupKeys)
			byKey[k] = g
			groupKeys = append(groupKeys, k)
			groupWays = append(groupWays, nil)
		}
		if j, dup := slices.BinarySearch(groupWays[g], assoc); !dup {
			groupWays[g] = slices.Insert(groupWays[g], j, assoc)
		}
		members[i] = member{g, assoc}
	}

	// The groups of one line size share a walk over the stream's line
	// numbers: one scanStacks serves every group no wider than scanWays,
	// and each wider group gets its own segmentStacks.
	type family struct {
		shift  uint
		scan   *scanStacks // nil when no group is narrow enough
		scanOf []int       // the group of each scan part
		deep   []*segmentStacks
		deepOf []int // the group of each deep walker
	}
	var fams []*family
	byShift := map[uint]*family{}
	for g, k := range groupKeys {
		f := byShift[k.shift]
		if f == nil {
			f = &family{shift: k.shift}
			byShift[k.shift] = f
			fams = append(fams, f)
		}
		if ways := groupWays[g]; ways[len(ways)-1] > scanWays || (k.sets == 1 && k.shift == 0) {
			f.deep = append(f.deep, newSegmentStacks(k.sets, ways))
			f.deepOf = append(f.deepOf, g)
			continue
		}
		if f.scan == nil {
			f.scan = &scanStacks{}
		}
		f.scan.addSets(k.sets)
		f.scanOf = append(f.scanOf, g)
	}

	done := ctx.Done()
	tick := supervise.TickerFrom(ctx)
	hists := make([][]uint64, len(groupKeys))
	buf := make([]uint64, min(len(addrs), sweepCheckEvery))
	for _, f := range fams {
		// A reference to the same line as the one before it is at depth
		// 0 in every group — a hit in every cache — and leaves every
		// stack as it was, so the walkers see each run of one line once.
		var prev uint64
		if len(addrs) > 0 {
			prev = ^(addrs[0] >> f.shift)
		}
		for base := 0; base < len(addrs); base += sweepCheckEvery {
			if done != nil && ctx.Err() != nil {
				return nil, supervise.Cause(ctx)
			}
			if tick != nil {
				tick()
			}
			blk := addrs[base:min(base+sweepCheckEvery, len(addrs))]
			n := 0
			for _, a := range blk {
				line := a >> f.shift
				buf[n] = line
				n += int(isZero(line^prev) ^ 1)
				prev = line
			}
			if f.scan != nil {
				f.scan.walk(buf[:n])
			}
			for _, d := range f.deep {
				d.walk(buf[:n])
			}
		}
		for i, g := range f.scanOf {
			hists[g] = f.scan.hist[i*(scanWays+1) : (i+1)*(scanWays+1)]
		}
		for i, g := range f.deepOf {
			hists[g] = f.deep[i].hist
		}
	}
	for _, h := range hists {
		// Suffix sums: h[d] becomes the references at depth d or
		// deeper, i.e. the misses of a d-way cache.
		for d := len(h) - 2; d >= 0; d-- {
			h[d] += h[d+1]
		}
	}
	misses := make([]uint64, len(cfgs))
	for i, m := range members {
		misses[i] = hists[m.group][m.assoc]
	}
	return misses, nil
}

// scanWays is the stack depth of scanStacks, which serves every group
// no wider than it — direct-mapped, 2-way and 4-way in Sweep28.
const scanWays = 4

// scanStacks keeps each set's stack as four entries, most recent first,
// for several set counts at once: one pass over the line numbers updates
// every set count's stack per reference. Entries are compared and
// shifted with arithmetic masks, so the walk has no branch that depends
// on whether a reference hits. A stack deeper than the group's widest
// cache only adds depth bins no configuration reads.
type scanStacks struct {
	masks []uint64           // per part: its set count - 1
	bases []int              // per part: its first set's index in lines
	hist  []uint64           // per part: scanWays+1 depth bins
	lines [][scanWays]uint64 // every part's sets, each most recent first
}

// addSets adds a part of the given set count. Set si's empty entries
// hold ^si: with two or more sets its low bits name another set, and
// with one set and lines of two or more bytes no line number reaches
// 2^64-1. The one geometry with no free value — a single set of 1-byte
// lines — must use segmentStacks.
func (s *scanStacks) addSets(sets int) {
	s.masks = append(s.masks, uint64(sets-1))
	s.bases = append(s.bases, len(s.lines))
	s.hist = append(s.hist, make([]uint64, scanWays+1)...)
	for si := 0; si < sets; si++ {
		e := ^uint64(si)
		s.lines = append(s.lines, [scanWays]uint64{e, e, e, e})
	}
}

func (s *scanStacks) walk(lines []uint64) {
	masks, bases := s.masks, s.bases
	hist := s.hist
	for _, line := range lines {
		for p, mask := range masks {
			st := &s.lines[bases[p]+int(line&mask)]
			l0, l1, l2, l3 := st[0], st[1], st[2], st[3]
			// A set's entries are distinct, so at most one eK is 1.
			e0, e1, e2, e3 := isZero(l0^line), isZero(l1^line), isZero(l2^line), isZero(l3^line)
			hist[p*(scanWays+1)+int(scanWays-4*e0-3*e1-2*e2-e3)]++
			// Entries above the line's old depth (all but the last on a
			// miss) move down one; the line goes on top. mK is all ones
			// when the line was not found above depth K.
			m1 := -(1 - e0)
			m2 := -(1 - e0 - e1)
			m3 := -(1 - e0 - e1 - e2)
			st[0] = line
			st[1] = l1 ^ (l0^l1)&m1
			st[2] = l2 ^ (l1^l2)&m2
			st[3] = l3 ^ (l2^l3)&m3
		}
	}
}

// isZero is 1 when x is 0 and 0 otherwise, without a branch.
func isZero(x uint64) uint64 { return (x|-x)>>63 ^ 1 }

// segmentStacks keeps each set's stack as a doubly-linked recency list
// cut into segments at the group's associativities: segment k holds the
// lines at depths [ways[k-1], ways[k]). A hash index finds a line's
// node, and so its segment, in O(1). Moving a line to the top pushes the
// last line of each segment above it one segment down, so a reference
// costs one lookup plus at most one step per associativity in the group
// — at most seven for the fully associative 8–512-way caches of
// Sweep28, where a scan would cost hundreds of probes.
type segmentStacks struct {
	mask  uint64
	depth int32   // widest associativity: nodes per set
	segs  int     // segments per set
	room  []int32 // per segment: its capacity in lines
	bin   []int32 // per segment, plus one for "not on the stack": histogram bin

	// Nodes; set si owns [si*depth, (si+1)*depth).
	line       []uint64
	prev, next []int32 // -1 ends a list
	seg        []int32

	// Per set.
	head, tail []int32
	size       []int32

	// Per set×segment. segTail is meaningful only while segCnt > 0, and
	// never read for the last segment, which never overflows: the list
	// tail is its last line.
	segTail, segCnt []int32

	index lineIndex
	hist  []uint64
}

func newSegmentStacks(sets int, ways []int) *segmentStacks {
	m := len(ways)
	depth := ways[m-1]
	s := &segmentStacks{
		mask:    uint64(sets - 1),
		depth:   int32(depth),
		segs:    m,
		room:    make([]int32, m),
		bin:     make([]int32, m+1),
		line:    make([]uint64, sets*depth),
		prev:    make([]int32, sets*depth),
		next:    make([]int32, sets*depth),
		seg:     make([]int32, sets*depth),
		head:    make([]int32, sets),
		tail:    make([]int32, sets),
		size:    make([]int32, sets),
		segTail: make([]int32, sets*m),
		segCnt:  make([]int32, sets*m),
		index:   newLineIndex(sets * depth),
		hist:    make([]uint64, depth+1),
	}
	lo := 0
	for k, w := range ways {
		s.room[k] = int32(w - lo)
		s.bin[k] = int32(lo)
		lo = w
	}
	s.bin[m] = int32(depth)
	for i := range s.head {
		s.head[i], s.tail[i] = -1, -1
	}
	return s
}

func (s *segmentStacks) walk(lines []uint64) {
	m := s.segs
	for _, line := range lines {
		si := int(line & s.mask)
		x, found := s.index.get(line)
		if found && x == s.head[si] {
			s.hist[0]++
			continue
		}
		cnt := s.segCnt[si*m : si*m+m]
		segTail := s.segTail[si*m : si*m+m]
		k := m // the segment x leaves; m when x was not on the stack
		if found {
			k = int(s.seg[x])
			cnt[k]--
			if segTail[k] == x {
				segTail[k] = s.prev[x]
			}
			s.unlink(si, x)
		} else if s.size[si] == s.depth {
			// Reuse the LRU line's node: it falls off the last segment.
			x = s.tail[si]
			cnt[m-1]--
			s.unlink(si, x)
			s.index.del(s.line[x])
			s.line[x] = line
			s.index.put(line, x)
		} else {
			x = int32(si)*s.depth + s.size[si]
			s.size[si]++
			s.line[x] = line
			s.index.put(line, x)
		}
		s.hist[s.bin[k]]++

		// Push x on top of segment 0, then let each overflowing
		// segment hand its last line to the next.
		s.prev[x], s.next[x] = -1, s.head[si]
		if h := s.head[si]; h >= 0 {
			s.prev[h] = x
		} else {
			s.tail[si] = x
		}
		s.head[si] = x
		s.seg[x] = 0
		if cnt[0] == 0 {
			segTail[0] = x
		}
		cnt[0]++
		for j := 0; cnt[j] > s.room[j]; j++ {
			y := segTail[j]
			segTail[j] = s.prev[y]
			cnt[j]--
			s.seg[y] = int32(j + 1)
			if cnt[j+1] == 0 {
				segTail[j+1] = y
			}
			cnt[j+1]++
		}
	}
}

// unlink removes node x from set si's recency list.
func (s *segmentStacks) unlink(si int, x int32) {
	p, n := s.prev[x], s.next[x]
	if p >= 0 {
		s.next[p] = n
	} else {
		s.head[si] = n
	}
	if n >= 0 {
		s.prev[n] = p
	} else {
		s.tail[si] = p
	}
}

// lineIndex maps line numbers to stack nodes: open addressing with
// linear probing and backward-shift deletion, sized to stay at most half
// full, so every lookup is a short probe over one contiguous table.
type lineIndex struct {
	slots []indexSlot
	mask  uint64
	shift uint // 64 - log2(len(slots)): Fibonacci hashing keeps the top bits
}

type indexSlot struct {
	line uint64
	node int32 // node+1; 0 marks an empty slot
}

func newLineIndex(entries int) lineIndex {
	n := 16
	for n < 2*entries {
		n <<= 1
	}
	return lineIndex{
		slots: make([]indexSlot, n),
		mask:  uint64(n - 1),
		shift: uint(64 - bits.TrailingZeros(uint(n))),
	}
}

func (h *lineIndex) home(line uint64) uint64 {
	return (line * 0x9e3779b97f4a7c15) >> h.shift
}

func (h *lineIndex) get(line uint64) (int32, bool) {
	for i := h.home(line); ; i = (i + 1) & h.mask {
		sl := &h.slots[i]
		if sl.node == 0 {
			return 0, false
		}
		if sl.line == line {
			return sl.node - 1, true
		}
	}
}

// put inserts a line known to be absent.
func (h *lineIndex) put(line uint64, node int32) {
	i := h.home(line)
	for h.slots[i].node != 0 {
		i = (i + 1) & h.mask
	}
	h.slots[i] = indexSlot{line, node + 1}
}

// del removes a line known to be present, shifting back any later entry
// of the probe run that may fill the hole, so lookups never need
// tombstones.
func (h *lineIndex) del(line uint64) {
	i := h.home(line)
	for h.slots[i].line != line || h.slots[i].node == 0 {
		i = (i + 1) & h.mask
	}
	for j := (i + 1) & h.mask; h.slots[j].node != 0; j = (j + 1) & h.mask {
		if (j-h.home(h.slots[j].line))&h.mask >= (j-i)&h.mask {
			h.slots[i] = h.slots[j]
			i = j
		}
	}
	h.slots[i].node = 0
}
