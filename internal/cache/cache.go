// Package cache implements the set-associative cache simulator used for
// the paper's cache design studies (Section 5.1's 28 configurations) and
// as the memory hierarchy of the timing simulator (internal/uarch).
package cache

import "fmt"

// Policy selects the replacement policy.
type Policy string

// Replacement policies. The paper fixes LRU for its 28-configuration
// sweep; FIFO and random exist for replacement studies.
const (
	PolicyLRU    Policy = "" // default
	PolicyFIFO   Policy = "fifo"
	PolicyRandom Policy = "random"
)

// Config describes one cache.
type Config struct {
	// Name labels the configuration in reports.
	Name string
	// Size is the total capacity in bytes.
	Size int
	// Assoc is the set associativity; 0 means fully associative.
	Assoc int
	// LineSize is the block size in bytes (power of two).
	LineSize int
	// Replacement selects the victim policy (default LRU).
	Replacement Policy
}

// Validate checks the configuration for structural errors.
func (c Config) Validate() error {
	if c.Size <= 0 || c.LineSize <= 0 {
		return fmt.Errorf("cache: bad size/line %d/%d", c.Size, c.LineSize)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineSize)
	}
	if c.Size%c.LineSize != 0 {
		return fmt.Errorf("cache: size %d not a multiple of line size %d", c.Size, c.LineSize)
	}
	lines := c.Size / c.LineSize
	assoc := c.Assoc
	if assoc == 0 {
		assoc = lines
	}
	if assoc < 0 || lines%assoc != 0 {
		return fmt.Errorf("cache: associativity %d incompatible with %d lines", c.Assoc, lines)
	}
	sets := lines / assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	switch c.Replacement {
	case PolicyLRU, PolicyFIFO, PolicyRandom:
	default:
		return fmt.Errorf("cache: unknown replacement policy %q", c.Replacement)
	}
	return nil
}

// String renders the geometry, e.g. "4KB/2-way/32B".
func (c Config) String() string {
	assoc := "full"
	if c.Assoc > 0 {
		assoc = fmt.Sprintf("%d-way", c.Assoc)
	}
	return fmt.Sprintf("%s/%s/%dB", sizeStr(c.Size), assoc, c.LineSize)
}

func sizeStr(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Stats accumulates access counts.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// MissRate is Misses/Accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

// indexedAssoc is the associativity at which lookups switch from a
// linear way scan to a per-set tag→way hash index. The paper's sweep
// includes fully associative caches up to 512 ways, where a linear scan
// averages hundreds of probes per access; one hash probe replaces it.
// Below the threshold a short scan is cheaper than hashing.
const indexedAssoc = 16

// recList tracks one set's recency order for indexed LRU/FIFO caches: an
// intrusive doubly-linked list over way indices with the most recent at
// head. It makes hit-promotion and victim selection O(1) where the lru
// timestamp scan is O(ways); the orders are identical (timestamps are
// unique), so the statistics do not change.
type recList struct {
	prev, next []int32
	head, tail int32
	// filled counts ways ever inserted; until it reaches the
	// associativity the next victim is the first invalid way, matching
	// the scan path (ways only fill in index order and are never
	// invalidated except by Reset).
	filled int32
}

func (r *recList) init(assoc int) {
	r.prev = make([]int32, assoc)
	r.next = make([]int32, assoc)
	r.head, r.tail, r.filled = -1, -1, 0
}

func (r *recList) reset() {
	r.head, r.tail, r.filled = -1, -1, 0
}

func (r *recList) pushFront(wi int32) {
	r.prev[wi] = -1
	r.next[wi] = r.head
	if r.head >= 0 {
		r.prev[r.head] = wi
	} else {
		r.tail = wi
	}
	r.head = wi
}

func (r *recList) unlink(wi int32) {
	p, n := r.prev[wi], r.next[wi]
	if p >= 0 {
		r.next[p] = n
	} else {
		r.head = n
	}
	if n >= 0 {
		r.prev[n] = p
	} else {
		r.tail = p
	}
}

func (r *recList) moveFront(wi int32) {
	if r.head == wi {
		return
	}
	r.unlink(wi)
	r.pushFront(wi)
}

// take returns the way to fill next — the first never-filled way while
// the set is cold, else the least recent way (unlinked from the list; the
// caller re-links it at the front after the fill).
func (r *recList) take() int32 {
	if int(r.filled) < len(r.prev) {
		wi := r.filled
		r.filled++
		return wi
	}
	wi := r.tail
	r.unlink(wi)
	return wi
}

// Cache is one level of set-associative cache with true-LRU replacement
// (the policy the paper fixes for all 28 configurations).
type Cache struct {
	cfg       Config
	sets      [][]line
	idx       []map[uint64]int32 // per-set tag→way, nil below indexedAssoc
	rec       []recList          // per-set recency lists, nil unless idx != nil and LRU/FIFO
	setMask   uint64
	lineShift uint
	clock     uint64
	rng       uint64 // random-policy state
	stats     Stats
}

// New builds a cache; the configuration must validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lines := cfg.Size / cfg.LineSize
	assoc := cfg.Assoc
	if assoc == 0 {
		assoc = lines
	}
	nsets := lines / assoc
	c := &Cache{
		cfg:       cfg,
		sets:      make([][]line, nsets),
		setMask:   uint64(nsets - 1),
		lineShift: log2(uint64(cfg.LineSize)),
		rng:       0x9e3779b97f4a7c15,
	}
	for i := range c.sets {
		c.sets[i] = make([]line, assoc)
	}
	if assoc >= indexedAssoc {
		c.idx = make([]map[uint64]int32, nsets)
		for i := range c.idx {
			c.idx[i] = make(map[uint64]int32, assoc)
		}
		if cfg.Replacement != PolicyRandom {
			c.rec = make([]recList, nsets)
			for i := range c.rec {
				c.rec[i].init(assoc)
			}
		}
	}
	return c, nil
}

// MustNew is New that panics on invalid configurations (for statically
// known-good tables).
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters but keeps the cache contents — used at
// the end of a measurement warmup phase.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	for si := range c.sets {
		for wi := range c.sets[si] {
			c.sets[si][wi] = line{}
		}
		if c.idx != nil {
			clear(c.idx[si])
		}
		if c.rec != nil {
			c.rec[si].reset()
		}
	}
	c.clock = 0
	c.stats = Stats{}
}

// lookup finds the way holding tag in set si, or -1. High-associativity
// sets use the hash index; the rest use a linear scan.
func (c *Cache) lookup(si uint64, tag uint64) int {
	if c.idx != nil {
		if wi, ok := c.idx[si][tag]; ok {
			return int(wi)
		}
		return -1
	}
	set := c.sets[si]
	for wi := range set {
		if set[wi].valid && set[wi].tag == tag {
			return wi
		}
	}
	return -1
}

// Access simulates one access. It returns true on hit. A miss allocates
// the line (write-allocate); dirty evictions count as writebacks.
func (c *Cache) Access(addr uint64, write bool) bool {
	c.clock++
	tag := addr >> c.lineShift
	si := tag & c.setMask
	c.stats.Accesses++
	set := c.sets[si]
	if wi := c.lookup(si, tag); wi >= 0 {
		if c.cfg.Replacement != PolicyFIFO {
			set[wi].lru = c.clock // FIFO ignores recency on hits
			if c.rec != nil {
				c.rec[si].moveFront(int32(wi))
			}
		}
		if write {
			set[wi].dirty = true
		}
		return true
	}
	c.stats.Misses++
	var victim int
	if c.rec != nil {
		victim = int(c.rec[si].take())
		c.rec[si].pushFront(int32(victim))
	} else {
		victim = c.victim(set)
	}
	if set[victim].valid {
		if set[victim].dirty {
			c.stats.Writebacks++
		}
		if c.idx != nil {
			delete(c.idx[si], set[victim].tag)
		}
	}
	set[victim] = line{tag: tag, valid: true, dirty: write, lru: c.clock}
	if c.idx != nil {
		c.idx[si][tag] = int32(victim)
	}
	return false
}

// victim picks the way to replace: an invalid way if any, else per the
// configured policy.
func (c *Cache) victim(set []line) int {
	for wi := range set {
		if !set[wi].valid {
			return wi
		}
	}
	if c.cfg.Replacement == PolicyRandom {
		c.rng ^= c.rng >> 12
		c.rng ^= c.rng << 25
		c.rng ^= c.rng >> 27
		return int((c.rng * 0x2545f4914f6cdd1d) % uint64(len(set)))
	}
	// LRU, and FIFO (whose lru field is the insertion time).
	victim := 0
	for wi := range set {
		if set[wi].lru < set[victim].lru {
			victim = wi
		}
	}
	return victim
}

// Prefetch inserts addr's line without touching the demand statistics
// (used by the timing simulator's sequential prefetcher). It returns true
// when the line was already resident.
func (c *Cache) Prefetch(addr uint64) bool {
	c.clock++
	tag := addr >> c.lineShift
	si := tag & c.setMask
	set := c.sets[si]
	if wi := c.lookup(si, tag); wi >= 0 {
		if c.cfg.Replacement != PolicyFIFO {
			set[wi].lru = c.clock
			if c.rec != nil {
				c.rec[si].moveFront(int32(wi))
			}
		}
		return true
	}
	var victim int
	if c.rec != nil {
		victim = int(c.rec[si].take())
		c.rec[si].pushFront(int32(victim))
	} else {
		victim = c.victim(set)
	}
	if set[victim].valid {
		if set[victim].dirty {
			c.stats.Writebacks++
		}
		if c.idx != nil {
			delete(c.idx[si], set[victim].tag)
		}
	}
	set[victim] = line{tag: tag, valid: true, lru: c.clock}
	if c.idx != nil {
		c.idx[si][tag] = int32(victim)
	}
	return false
}

// Sweep28 returns the paper's 28 L1 data cache configurations: sizes 256 B
// through 16 KB in powers of two, each direct-mapped, 2-way, 4-way, and
// fully associative, with 32-byte lines and LRU (Section 5.1).
func Sweep28() []Config {
	var out []Config
	for size := 256; size <= 16*1024; size *= 2 {
		for _, assoc := range []int{1, 2, 4, 0} {
			cfg := Config{Size: size, Assoc: assoc, LineSize: 32}
			cfg.Name = cfg.String()
			out = append(out, cfg)
		}
	}
	return out
}
