package edatool

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/diag"
	"repro/internal/verilog"
	"repro/internal/vhdl"
	"repro/internal/vhdlsim"
	"repro/internal/vsim"
)

// DesignCache is the in-process elaboration-reuse layer spanning both
// front-ends. It stacks three caches, coarsest first:
//
//  1. A full-design cache keyed by (language, top, sorted name:hash
//     unit set): an identical source set skips parse, check, and
//     elaborate entirely and re-simulates the retained design after a
//     reset to time zero. Entries are checked out exclusively — an
//     acquire removes the design, the post-run release returns it — so
//     concurrent simulations never share one Design.
//  2. Per-unit parse caches keyed by (file name, content hash): in the
//     repair loop only the candidate RTL changes, so the testbench and
//     stub units skip re-parsing. Returning the *same* AST pointers is
//     also what feeds cache 3 (ASTs are immutable after parse).
//     Concurrent misses on one key parse once; the other callers wait
//     for that parse and count a hit.
//  3. The front-end elaboration template caches (vsim.ElabCache /
//     vhdlsim.ElabCache), keyed by AST pointer + parameter/generic
//     valuation: unchanged modules of a changed design skip their
//     elaboration walk and re-link against the changed ones.
//
// The cache is strictly key-neutral: it changes how fast a result is
// produced, never the result. Warm, incremental, and reset-and-rerun
// paths are proven byte-identical to cold runs by the differential
// tests in this package, and runner/job cache keys do not include it.
//
// Source sets are treated as order-normalized (the unit hashes are
// sorted into the key): the pipeline always passes units with distinct
// names and distinct module/entity names, where order cannot change
// the compiled design.
type DesignCache struct {
	mu sync.Mutex

	vparse map[string]*parseEntry[*verilog.SourceFile]
	hparse map[string]*parseEntry[*vhdl.DesignFile]

	vdesigns map[string]*vsim.Design
	hdesigns map[string]*vhdlsim.Design

	velab  *vsim.ElabCache
	vhelab *vhdlsim.ElabCache

	stats CacheStats
}

// parseEntry is one per-unit parse. done is closed once the parse has
// finished; ast and diags are valid after that only if ok is set.
type parseEntry[T any] struct {
	done  chan struct{}
	ok    bool
	ast   T
	diags diag.List
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
// Design counts track whole-design reuse (skip everything), parse
// counts per-unit reuse (skip parsing; unchanged units also hit the
// elaboration template caches through AST pointer identity).
type CacheStats struct {
	DesignHits   int
	DesignMisses int
	ParseHits    int
	ParseMisses  int
}

// Sub returns s - o, for before/after deltas around a run.
func (s CacheStats) Sub(o CacheStats) CacheStats {
	return CacheStats{
		DesignHits:   s.DesignHits - o.DesignHits,
		DesignMisses: s.DesignMisses - o.DesignMisses,
		ParseHits:    s.ParseHits - o.ParseHits,
		ParseMisses:  s.ParseMisses - o.ParseMisses,
	}
}

// maxDesigns bounds the retained-design maps per language; overflow
// evicts an arbitrary entry (eviction is invisible in results — only
// in speed).
const maxDesigns = 256

// NewDesignCache returns an empty cache, safe for concurrent use by
// any number of simulations.
func NewDesignCache() *DesignCache {
	return &DesignCache{
		vparse:   make(map[string]*parseEntry[*verilog.SourceFile]),
		hparse:   make(map[string]*parseEntry[*vhdl.DesignFile]),
		vdesigns: make(map[string]*vsim.Design),
		hdesigns: make(map[string]*vhdlsim.Design),
		velab:    vsim.NewElabCache(),
		vhelab:   vhdlsim.NewElabCache(),
	}
}

// Stats snapshots the hit/miss counters.
func (c *DesignCache) Stats() CacheStats {
	c.mu.Lock()
	s := c.stats
	c.mu.Unlock()
	return s
}

// designKey builds the full-design cache key: language, top, and the
// sorted (name, content hash) set of the source units.
func designKey(lang Language, top string, sources []Source) string {
	parts := make([]string, 0, len(sources))
	for _, src := range sources {
		h := verilog.HashSource(src.Text)
		if lang == VHDL {
			h = vhdl.HashSource(src.Text)
		}
		parts = append(parts, src.Name+":"+h)
	}
	sort.Strings(parts)
	return lang.String() + "|" + top + "|" + strings.Join(parts, "|")
}

// acquireVerilog checks out a retained design for key, removing it
// from the cache so no concurrent run can share it.
func (c *DesignCache) acquireVerilog(key string) (*vsim.Design, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d, ok := c.vdesigns[key]; ok {
		delete(c.vdesigns, key)
		c.stats.DesignHits++
		return d, true
	}
	c.stats.DesignMisses++
	return nil, false
}

// releaseVerilog returns a checked-out (or freshly elaborated) design.
// If another run released the same key first, the incoming design is
// dropped — the map holds one design per key.
func (c *DesignCache) releaseVerilog(key string, d *vsim.Design) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.vdesigns[key]; exists {
		return
	}
	if len(c.vdesigns) >= maxDesigns {
		for k := range c.vdesigns {
			delete(c.vdesigns, k)
			break
		}
	}
	c.vdesigns[key] = d
}

func (c *DesignCache) acquireVHDL(key string) (*vhdlsim.Design, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d, ok := c.hdesigns[key]; ok {
		delete(c.hdesigns, key)
		c.stats.DesignHits++
		return d, true
	}
	c.stats.DesignMisses++
	return nil, false
}

func (c *DesignCache) releaseVHDL(key string, d *vhdlsim.Design) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.hdesigns[key]; exists {
		return
	}
	if len(c.hdesigns) >= maxDesigns {
		for k := range c.hdesigns {
			delete(c.hdesigns, k)
			break
		}
	}
	c.hdesigns[key] = d
}

// parseVerilog parses src through the per-unit cache (identical file
// name and content return the retained AST and diagnostics).
func (c *DesignCache) parseVerilog(src Source) (*verilog.SourceFile, diag.List) {
	key := src.Name + "\x00" + verilog.HashSource(src.Text)
	return parseOnce(c, c.vparse, key, func() (*verilog.SourceFile, diag.List) {
		return verilog.Parse(src.Name, src.Text)
	})
}

func (c *DesignCache) parseVHDL(src Source) (*vhdl.DesignFile, diag.List) {
	key := src.Name + "\x00" + vhdl.HashSource(src.Text)
	return parseOnce(c, c.hparse, key, func() (*vhdl.DesignFile, diag.List) {
		return vhdl.Parse(src.Name, src.Text)
	})
}

// parseOnce returns the parse cached in m under key, running parse on a
// miss. The entry is published before parsing, so concurrent misses on
// one key parse once: later callers count a hit and wait for the
// in-flight parse. If parse panics, the entry is withdrawn and each
// waiter parses for itself (re-raising the panic on its own goroutine
// rather than hanging).
func parseOnce[T any](c *DesignCache, m map[string]*parseEntry[T], key string, parse func() (T, diag.List)) (T, diag.List) {
	c.mu.Lock()
	if e, ok := m[key]; ok {
		c.stats.ParseHits++
		c.mu.Unlock()
		<-e.done
		if !e.ok {
			return parse()
		}
		return e.ast, e.diags
	}
	c.stats.ParseMisses++
	if len(m) >= maxDesigns {
		for k := range m {
			delete(m, k)
			break
		}
	}
	e := &parseEntry[T]{done: make(chan struct{})}
	m[key] = e
	c.mu.Unlock()

	defer func() {
		if !e.ok {
			c.mu.Lock()
			if m[key] == e {
				delete(m, key)
			}
			c.mu.Unlock()
		}
		close(e.done)
	}()
	e.ast, e.diags = parse()
	e.ok = true
	return e.ast, e.diags
}
