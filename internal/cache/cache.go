// Package cache implements the private per-core cache hierarchy of the
// paper's Table 5: 32KB 4-way L1 instruction and data caches (2-cycle),
// a 512KB 8-way unified L2 (12-cycle), write-back write-allocate with
// LRU replacement, a 16-entry MSHR file with miss merging at the memory
// boundary, and a dirty-writeback stream toward the memory controller.
//
// The package is purely functional with respect to time: it classifies
// accesses and tracks outstanding misses; the core model and system
// simulator attach latencies and drain the outgoing request queues.
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	SizeKB    int
	Ways      int
	LineBytes int
	Latency   int // access latency in cycles
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeKB * 1024 / (c.Ways * c.LineBytes) }

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	switch {
	case c.SizeKB < 1 || c.Ways < 1 || c.LineBytes < 1 || c.Latency < 0:
		return fmt.Errorf("cache: invalid config %+v", c)
	case c.SizeKB*1024%(c.Ways*c.LineBytes) != 0:
		return fmt.Errorf("cache: size %dKB not divisible into %d ways of %dB lines", c.SizeKB, c.Ways, c.LineBytes)
	default:
		s := c.Sets()
		if s&(s-1) != 0 {
			return fmt.Errorf("cache: set count %d is not a power of two", s)
		}
		if s < 4 {
			// A line keeps its valid and dirty bits below its tag, in
			// the two low bits the set index frees.
			return fmt.Errorf("cache: %d sets; at least 4 are needed", s)
		}
	}
	return nil
}

// A line is 16 bytes, so four ways share one 64-byte host cache line:
// key is tag<<2 | dirty<<1 | valid, and an invalid line is the zero
// line (nothing reads an invalid line's tag, dirty bit or lastUse, and
// Fill overwrites all of them).
type line struct {
	key     uint64
	lastUse int64
}

const (
	lineValid = 1
	lineDirty = 2
)

// Cache is one set-associative write-back cache level. Addresses are
// line addresses (byte address / line size); the cache never sees byte
// offsets.
type Cache struct {
	cfg      Config
	lines    []line // set i is lines[i*Ways : (i+1)*Ways]
	setMask  uint64
	tagShift uint
	useTick  int64

	Hits, Misses int64
}

// New returns an empty cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Sets()
	return &Cache{
		cfg:      cfg,
		lines:    make([]line, n*cfg.Ways),
		setMask:  uint64(n - 1),
		tagShift: uint(popshift(uint64(n - 1))),
	}, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) set(lineAddr uint64) []line {
	i := int(lineAddr&c.setMask) * c.cfg.Ways
	return c.lines[i : i+c.cfg.Ways]
}

// key is the valid, clean key of lineAddr's tag; a line holds lineAddr
// when its key with the dirty bit cleared equals it.
func (c *Cache) key(lineAddr uint64) uint64 { return lineAddr>>c.tagShift<<2 | lineValid }

func popshift(mask uint64) int {
	n := 0
	for mask != 0 {
		mask >>= 1
		n++
	}
	return n
}

// Lookup probes the cache without modifying replacement state.
func (c *Cache) Lookup(lineAddr uint64) bool {
	key := c.key(lineAddr)
	for _, l := range c.set(lineAddr) {
		if l.key&^lineDirty == key {
			return true
		}
	}
	return false
}

// Access probes the cache, updating LRU state and hit/miss counters; on
// a hit with write=true the line is marked dirty.
func (c *Cache) Access(lineAddr uint64, write bool) bool {
	c.useTick++
	key := c.key(lineAddr)
	s := c.set(lineAddr)
	for i := range s {
		l := &s[i]
		if l.key&^lineDirty == key {
			l.lastUse = c.useTick
			if write {
				l.key |= lineDirty
			}
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Fill installs a line, evicting the LRU victim. It reports the evicted
// line's address and whether it was dirty (and valid).
func (c *Cache) Fill(lineAddr uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	c.useTick++
	key := c.key(lineAddr)
	if dirty {
		key |= lineDirty
	}
	s := c.set(lineAddr)
	vi := 0
	for i := range s {
		l := &s[i]
		if l.key&^lineDirty == key&^lineDirty {
			// Already present (e.g. racing fill); just update.
			l.lastUse = c.useTick
			l.key |= key & lineDirty
			return 0, false, false
		}
		if l.key&lineValid == 0 {
			vi = i
			break
		}
		if s[i].lastUse < s[vi].lastUse {
			vi = i
		}
	}
	v := &s[vi]
	if v.key&lineValid != 0 {
		victim = v.key>>2<<c.tagShift | (lineAddr & c.setMask)
		victimDirty = v.key&lineDirty != 0
		evicted = true
	}
	*v = line{key: key, lastUse: c.useTick}
	return victim, victimDirty, evicted
}

// Invalidate removes a line if present, returning whether it was dirty.
func (c *Cache) Invalidate(lineAddr uint64) (wasDirty, wasPresent bool) {
	key := c.key(lineAddr)
	s := c.set(lineAddr)
	for i := range s {
		l := &s[i]
		if l.key&^lineDirty == key {
			wasDirty = l.key&lineDirty != 0
			*l = line{}
			return wasDirty, true
		}
	}
	return false, false
}
