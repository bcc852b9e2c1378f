// Package bufferpool simulates a database buffer pool with LRU
// replacement, per-query-class statistics, sequential read-ahead
// (prefetching) and optional per-class partitions with fixed memory
// quotas.
//
// This is the substrate the paper instruments in MySQL/InnoDB and also the
// "simulator of buffer pool management driven by traces of page accesses
// per query class" it uses to evaluate buffer partitioning (§5.3). A pool
// starts fully shared; enforcing a quota for a query class (the selective
// retuning action of §3.3.2) carves a dedicated partition out of the pool
// and shrinks the shared remainder accordingly.
//
// Concurrency: a Pool belongs to its engine's query path
// (internal/engine) and is single-owner; its OnMiss/OnFlush hooks run
// synchronously on that owner. Per-class statistics derived from pool
// activity flow through the engine's logging buffer into its metrics
// collector (internal/metrics) on the same owner.
package bufferpool

import (
	"fmt"
	"math/bits"
)

// Stats aggregates the per-class counters the engine logs.
type Stats struct {
	Accesses   int64 // logical page requests
	Hits       int64 // requests served from the pool
	Misses     int64 // requests that required a disk read
	Prefetches int64 // pages brought in by read-ahead
	Evictions  int64 // pages evicted to make room
	Flushes    int64 // dirty pages written back on eviction
}

// HitRatio reports Hits/Accesses, or 0 with no accesses.
func (s Stats) HitRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// nilNode ends a list and the free list.
const nilNode = -1

// node is one resident page: an element of its partition's young or old
// list, linked by index into partition.nodes.
type node struct {
	id         uint64
	prev, next int32
	owner      int32 // the class that brought the page in: index into Pool.order
	dirty      bool
	inOld      bool
}

// sublist is a doubly linked list of nodes.
type sublist struct {
	front, back int32
	n           int
}

type partition struct {
	capacity int
	// The LRU list is split at a midpoint into a young (MRU-side) and an
	// old (LRU-side) sublist, as in InnoDB. With midpoint = 0 the old
	// sublist is unused and the partition is a classic LRU.
	young sublist // front = MRU
	old   sublist // front = midpoint boundary, back = eviction victim
	// nodes holds every node the partition ever allocated; free heads
	// the list, linked through next, of those not resident.
	nodes []node
	free  int32
	// slots is the page table, which maps a resident page to its node:
	// an open-addressing hash table of node indexes (nilNode when empty)
	// that compares keys through nodes[i].id, so it stores no keys and
	// no pointers. Pages hash multiplicatively to a home slot (the top
	// bits of id·2^64/φ, shift being 64 − log2 len(slots)), probes run
	// linearly, deletion shifts later entries of the cluster back, and
	// the table doubles to stay at most half full.
	slots []int32
	shift uint8
	used  int // occupied slots
	// oldCap is the old sublist's target size; 0 disables midpoint
	// insertion.
	oldCap int
}

func newPartition(capacity int, midpoint float64) *partition {
	p := &partition{
		young: sublist{front: nilNode, back: nilNode},
		old:   sublist{front: nilNode, back: nilNode},
		free:  nilNode,
	}
	p.resize(minSlots)
	p.setCapacity(capacity, midpoint)
	return p
}

func (p *partition) setCapacity(capacity int, midpoint float64) {
	p.capacity = capacity
	if midpoint > 0 {
		if midpoint > 1 {
			midpoint = 1
		}
		p.oldCap = int(float64(capacity) * midpoint)
		if p.oldCap < 1 && capacity > 0 {
			p.oldCap = 1
		}
	} else {
		p.oldCap = 0
	}
}

func (p *partition) len() int { return p.young.n + p.old.n }

// minSlots is the page table's initial size.
const minSlots = 8

// home returns the slot where the probe for page id starts.
func (p *partition) home(id uint64) int {
	return int(id * 0x9e3779b97f4a7c15 >> p.shift)
}

// find returns the node of resident page id, or nilNode.
func (p *partition) find(id uint64) int32 {
	mask := len(p.slots) - 1
	for s := p.home(id); ; s = (s + 1) & mask {
		if i := p.slots[s]; i == nilNode || p.nodes[i].id == id {
			return i
		}
	}
}

// place puts node i, whose page is not in the table, in the first free
// slot of its probe sequence.
func (p *partition) place(i int32) {
	mask := len(p.slots) - 1
	s := p.home(p.nodes[i].id)
	for p.slots[s] != nilNode {
		s = (s + 1) & mask
	}
	p.slots[s] = i
}

// resize rebuilds the page table with n slots, a power of two.
func (p *partition) resize(n int) {
	old := p.slots
	p.slots = make([]int32, n)
	for s := range p.slots {
		p.slots[s] = nilNode
	}
	p.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	for _, i := range old {
		if i != nilNode {
			p.place(i)
		}
	}
}

// unmap removes node i's page from the page table. Each later entry of
// the probe cluster moves back into the hole unless its home slot lies
// cyclically after the hole, so every probe still reaches its entry
// before an empty slot.
func (p *partition) unmap(i int32) {
	mask := len(p.slots) - 1
	hole := p.home(p.nodes[i].id)
	for p.slots[hole] != i {
		hole = (hole + 1) & mask
	}
	for s := (hole + 1) & mask; p.slots[s] != nilNode; s = (s + 1) & mask {
		j := p.slots[s]
		if (s-p.home(p.nodes[j].id))&mask < (s-hole)&mask {
			continue // j's home is in (hole, s]: it must stay after it
		}
		p.slots[hole] = j
		hole = s
	}
	p.slots[hole] = nilNode
	p.used--
}

func (p *partition) pushFront(l *sublist, i int32) {
	p.nodes[i].prev, p.nodes[i].next = nilNode, l.front
	if l.front != nilNode {
		p.nodes[l.front].prev = i
	} else {
		l.back = i
	}
	l.front = i
	l.n++
}

func (p *partition) pushBack(l *sublist, i int32) {
	p.nodes[i].prev, p.nodes[i].next = l.back, nilNode
	if l.back != nilNode {
		p.nodes[l.back].next = i
	} else {
		l.front = i
	}
	l.back = i
	l.n++
}

func (p *partition) unlink(l *sublist, i int32) {
	n := &p.nodes[i]
	if n.prev != nilNode {
		p.nodes[n.prev].next = n.next
	} else {
		l.front = n.next
	}
	if n.next != nilNode {
		p.nodes[n.next].prev = n.prev
	} else {
		l.back = n.prev
	}
	l.n--
}

// alloc makes id resident in an unlinked node owned by class owner and
// returns the node.
func (p *partition) alloc(id uint64, owner int32) int32 {
	i := p.free
	if i != nilNode {
		p.free = p.nodes[i].next
		p.nodes[i] = node{id: id, owner: owner}
	} else {
		i = int32(len(p.nodes))
		p.nodes = append(p.nodes, node{id: id, owner: owner})
	}
	if 2*(p.used+1) > len(p.slots) {
		p.resize(2 * len(p.slots))
	}
	p.place(i)
	p.used++
	return i
}

// release drops unlinked node i from the page table onto the free list.
func (p *partition) release(i int32) {
	p.unmap(i)
	p.nodes[i].next = p.free
	p.free = i
}

// touch records a hit on node i: young pages move to the MRU end; old
// pages are promoted into the young sublist (the midpoint policy's
// "second access" promotion).
func (p *partition) touch(i int32) {
	if !p.nodes[i].inOld {
		if p.young.front != i {
			p.unlink(&p.young, i)
			p.pushFront(&p.young, i)
		}
		return
	}
	p.unlink(&p.old, i)
	p.nodes[i].inOld = false
	p.pushFront(&p.young, i)
	p.rebalance()
}

// add inserts page id for class owner, assuming capacity has been made
// available, and returns its node. With midpoint insertion enabled, new
// pages enter at the head of the old sublist; otherwise at the MRU end.
func (p *partition) add(id uint64, owner int32) int32 {
	i := p.alloc(id, owner)
	if p.oldCap > 0 {
		p.nodes[i].inOld = true
		p.pushFront(&p.old, i)
	} else {
		p.pushFront(&p.young, i)
	}
	p.rebalance()
	return i
}

// rebalance demotes young-tail pages into the old sublist until the old
// sublist holds its target share (only with midpoint insertion).
func (p *partition) rebalance() {
	if p.oldCap == 0 {
		return
	}
	for p.old.n < p.oldCap && p.young.n > 0 && p.len() >= p.capacity {
		i := p.young.back
		p.unlink(&p.young, i)
		p.nodes[i].inOld = true
		p.pushFront(&p.old, i)
	}
}

// evict removes the least valuable page and reports it (old tail first,
// then young tail). ok is false when the partition is empty.
func (p *partition) evict() (node, bool) {
	l := &p.old
	if l.n == 0 {
		l = &p.young
	}
	if l.n == 0 {
		return node{}, false
	}
	i := l.back
	p.unlink(l, i)
	victim := p.nodes[i]
	p.release(i)
	return victim, true
}

// remove deletes node i.
func (p *partition) remove(i int32) {
	l := &p.young
	if p.nodes[i].inOld {
		l = &p.old
	}
	p.unlink(l, i)
	p.release(i)
}

// each calls fn on every resident node, young sublist MRU first, then
// old sublist from the midpoint to the tail.
func (p *partition) each(fn func(*node)) {
	for _, l := range [2]*sublist{&p.young, &p.old} {
		for i := l.front; i != nilNode; i = p.nodes[i].next {
			fn(&p.nodes[i])
		}
	}
}

// Config controls pool construction.
type Config struct {
	// Capacity is the total pool size in pages. Must be positive.
	Capacity int
	// ReadAheadRun is the number of consecutive sequential accesses that
	// trigger read-ahead. Zero disables read-ahead.
	ReadAheadRun int
	// ReadAheadPages is how many pages each read-ahead brings in.
	// Defaults to 32 when read-ahead is enabled.
	ReadAheadPages int
	// MidpointFraction enables InnoDB-style midpoint insertion, the
	// engine-level defence against scan pollution: newly read pages
	// enter at this fraction from the LRU tail (InnoDB's "old sublist",
	// typically 3/8) and are promoted to the MRU end only on a
	// subsequent hit. Zero keeps classic insert-at-MRU LRU. The
	// midpoint-vs-quota ablation quantifies how much of the §5.3 damage
	// this engine knob absorbs on its own.
	MidpointFraction float64
}

// Pool is a buffer pool. It is not safe for concurrent use; each simulated
// engine owns one pool and drives it from the event loop.
type Pool struct {
	cfg     Config
	shared  *partition
	classes map[string]*Class
	order   []*Class                      // classes by first use; node.owner indexes it
	onMiss  func(class string, pages int) // I/O hook: demand misses + prefetch batches
	onFlush func(class string, pages int) // I/O hook: dirty pages written back
}

// Class is everything the pool keeps for one query class. Callers hold
// a *Class as an opaque handle from Pool.Class and pass it to Access and
// Write, so a page access makes no lookup by name. A handle belongs to
// the pool that issued it. The pool never deletes class state
// (RemoveQuota keeps it), so a handle stays valid for the pool's
// lifetime.
type Class struct {
	name  string
	idx   int32 // position in Pool.order
	stats Stats
	// part serves the class: the shared partition, or its own one while
	// it has a quota (the quota is that partition's capacity).
	part *partition
	// lastPage and runLen detect sequential runs for read-ahead;
	// lastPage is unset until the class's first access.
	lastPage    uint64
	hasLastPage bool
	runLen      int
}

// New returns a pool with the given configuration.
func New(cfg Config) (*Pool, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("bufferpool: capacity must be positive, got %d", cfg.Capacity)
	}
	if cfg.ReadAheadRun > 0 && cfg.ReadAheadPages <= 0 {
		cfg.ReadAheadPages = 32
	}
	p := &Pool{
		cfg:     cfg,
		shared:  newPartition(cfg.Capacity, cfg.MidpointFraction),
		classes: make(map[string]*Class),
	}
	return p, nil
}

// MustNew is New for static configurations known to be valid.
func MustNew(cfg Config) *Pool {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// OnMiss registers a hook invoked with the number of pages read from disk
// on each demand miss or read-ahead batch. The engine uses it to charge
// I/O time and to count I/O block requests.
func (p *Pool) OnMiss(fn func(class string, pages int)) { p.onMiss = fn }

// OnFlush registers a hook invoked when a dirty page is written back to
// disk at eviction, charged to the class that dirtied the page.
func (p *Pool) OnFlush(fn func(class string, pages int)) { p.onFlush = fn }

// Capacity reports the total configured capacity in pages.
func (p *Pool) Capacity() int { return p.cfg.Capacity }

// Class returns the handle of the class called name, creating its state
// on first use.
func (p *Pool) Class(name string) *Class {
	cs := p.classes[name]
	if cs == nil {
		cs = &Class{name: name, idx: int32(len(p.order)), part: p.shared}
		p.classes[name] = cs
		p.order = append(p.order, cs)
	}
	return cs
}

// hasQuota reports whether cs has a partition of its own.
func (p *Pool) hasQuota(cs *Class) bool { return cs != nil && cs.part != p.shared }

// eachPartition calls fn on the shared partition, then on each quota
// partition in its class's first-use order.
func (p *Pool) eachPartition(fn func(*partition)) {
	fn(p.shared)
	for _, cs := range p.order {
		if p.hasQuota(cs) {
			fn(cs.part)
		}
	}
}

// insert places page id, brought in by class owner, into part, evicting
// pages if needed. It returns the page's node (nilNode when part caches
// nothing) and whether an eviction happened. Evicted dirty pages are
// written back, charged to the class that dirtied them.
func (p *Pool) insert(part *partition, id uint64, owner int32) (int32, bool) {
	if part.capacity <= 0 {
		return nilNode, false // zero-quota partition caches nothing
	}
	evicted := false
	for part.len() >= part.capacity {
		victim, ok := part.evict()
		if !ok {
			break
		}
		p.flushIfDirty(victim)
		evicted = true
	}
	return part.add(id, owner), evicted
}

// flushIfDirty accounts the write-back of an evicted dirty page.
func (p *Pool) flushIfDirty(victim node) {
	if victim.dirty {
		p.flush(p.order[victim.owner])
	}
}

// flush accounts one dirty page written back on behalf of cs.
func (p *Pool) flush(cs *Class) {
	cs.stats.Flushes++
	if p.onFlush != nil {
		p.onFlush(cs.name, 1)
	}
}

// AccessResult reports what one logical page access did.
type AccessResult struct {
	Hit        bool
	Prefetched int // pages brought in by read-ahead triggered by this access
}

// Write performs one logical page access on behalf of cs that also
// dirties the page: the page will be written back to disk when evicted.
func (p *Pool) Write(cs *Class, pg uint64) AccessResult {
	res, i := p.access(cs, pg)
	if res.Prefetched > 0 {
		// Read-ahead may have evicted the page, and reused its node.
		i = cs.part.find(pg)
	}
	if i != nilNode {
		cs.part.nodes[i].dirty = true
	}
	return res
}

// FlushAll writes back every dirty page (as at a checkpoint), returning
// how many pages were flushed. Pages stay resident and become clean.
func (p *Pool) FlushAll() int {
	flushed := 0
	p.eachPartition(func(part *partition) {
		part.each(func(n *node) {
			if n.dirty {
				n.dirty = false
				p.flush(p.order[n.owner])
				flushed++
			}
		})
	})
	return flushed
}

// DirtyPages counts currently dirty resident pages.
func (p *Pool) DirtyPages() int {
	n := 0
	p.eachPartition(func(part *partition) {
		part.each(func(nd *node) {
			if nd.dirty {
				n++
			}
		})
	})
	return n
}

// Access performs one logical page access on behalf of cs and returns
// whether it hit and how many pages read-ahead fetched. The miss hook is
// called for the demand read and for the prefetch batch (if any).
func (p *Pool) Access(cs *Class, pg uint64) AccessResult {
	res, _ := p.access(cs, pg)
	return res
}

// access is Access that also returns pg's node as the demand access left
// it (nilNode when the partition caches nothing); read-ahead runs
// afterwards and may evict it.
func (p *Pool) access(cs *Class, pg uint64) (AccessResult, int32) {
	part := cs.part
	cs.stats.Accesses++

	var res AccessResult
	i := part.find(pg)
	if i != nilNode {
		part.touch(i)
		cs.stats.Hits++
		res.Hit = true
	} else {
		cs.stats.Misses++
		var evicted bool
		if i, evicted = p.insert(part, pg, cs.idx); evicted {
			cs.stats.Evictions++
		}
		if p.onMiss != nil {
			p.onMiss(cs.name, 1)
		}
	}

	// Sequential read-ahead: a run of consecutive pages triggers a
	// prefetch of the next ReadAheadPages pages, mirroring InnoDB's
	// linear read-ahead.
	if p.cfg.ReadAheadRun > 0 {
		if cs.hasLastPage && pg == cs.lastPage+1 {
			cs.runLen++
		} else {
			cs.runLen = 0
		}
		cs.lastPage, cs.hasLastPage = pg, true
		if cs.runLen >= p.cfg.ReadAheadRun {
			cs.runLen = 0
			n := p.prefetch(cs, pg+1, p.cfg.ReadAheadPages)
			cs.stats.Prefetches += int64(n)
			res.Prefetched = n
		}
	}
	return res, i
}

// prefetch brings up to n pages starting at first into cs's partition,
// skipping pages already resident, and returns how many were fetched.
func (p *Pool) prefetch(cs *Class, first uint64, n int) int {
	part := cs.part
	fetched := 0
	for i := 0; i < n; i++ {
		id := first + uint64(i)
		if part.find(id) != nilNode {
			continue
		}
		if part.capacity <= 0 {
			break
		}
		if _, evicted := p.insert(part, id, cs.idx); evicted {
			cs.stats.Evictions++
		}
		fetched++
	}
	if fetched > 0 && p.onMiss != nil {
		p.onMiss(cs.name, fetched)
	}
	return fetched
}

// Contains reports whether page pg is resident in the partition serving
// class.
func (p *Pool) Contains(class string, pg uint64) bool {
	part := p.shared
	if cs := p.classes[class]; cs != nil {
		part = cs.part
	}
	return part.find(pg) != nilNode
}

// Resident reports the number of pages currently cached across all
// partitions.
func (p *Pool) Resident() int {
	total := 0
	p.eachPartition(func(part *partition) { total += part.len() })
	return total
}

// Stats returns a copy of the counters for class.
func (p *Pool) Stats(class string) Stats {
	if cs := p.classes[class]; cs != nil {
		return cs.stats
	}
	return Stats{}
}

// TotalStats sums the counters across every class — the pool-wide view
// the observability layer exposes as hit-ratio and traffic gauges.
func (p *Pool) TotalStats() Stats {
	var total Stats
	for _, cs := range p.order {
		s := &cs.stats
		total.Accesses += s.Accesses
		total.Hits += s.Hits
		total.Misses += s.Misses
		total.Prefetches += s.Prefetches
		total.Evictions += s.Evictions
		total.Flushes += s.Flushes
	}
	return total
}

// ResetStats zeroes all per-class counters without touching pool contents.
func (p *Pool) ResetStats() {
	for _, cs := range p.order {
		cs.stats = Stats{}
	}
}

// Quota reports the quota for class and whether one is set.
func (p *Pool) Quota(class string) (int, bool) {
	if cs := p.classes[class]; p.hasQuota(cs) {
		return cs.part.capacity, true
	}
	return 0, false
}

// SetQuota gives class a dedicated partition of q pages, carved out of the
// shared partition. The class's pages currently in the shared partition
// are migrated (up to the quota); the shared partition shrinks by q and
// evicts any overflow. Setting a quota for a class that already has one
// resizes its partition. An error is returned if quotas would exceed the
// pool capacity.
func (p *Pool) SetQuota(class string, q int) error {
	if class == "" {
		return fmt.Errorf("bufferpool: empty class name is reserved")
	}
	if q < 0 {
		return fmt.Errorf("bufferpool: negative quota %d for %q", q, class)
	}
	sum := q
	for _, cs := range p.order {
		if cs.name != class && p.hasQuota(cs) {
			sum += cs.part.capacity
		}
	}
	if sum > p.cfg.Capacity {
		return fmt.Errorf("bufferpool: quotas %d pages exceed capacity %d", sum, p.cfg.Capacity)
	}

	cs := p.Class(class)
	if p.hasQuota(cs) {
		cs.part.setCapacity(q, p.cfg.MidpointFraction)
		p.shrinkToCapacity(cs.part)
	} else {
		part := newPartition(q, p.cfg.MidpointFraction)
		cs.part = part
		// Migrate the class's resident pages from the shared partition,
		// preserving recency order (walk MRU to LRU within each sublist
		// and push to the back of the new partition's young list).
		sh := p.shared
		for _, l := range [2]*sublist{&sh.young, &sh.old} {
			for i := l.front; i != nilNode; {
				next := sh.nodes[i].next
				if pg := sh.nodes[i]; pg.owner == cs.idx {
					sh.remove(i)
					if part.len() < part.capacity {
						j := part.alloc(pg.id, pg.owner)
						part.nodes[j].dirty = pg.dirty
						part.pushBack(&part.young, j)
					} else {
						p.flushIfDirty(pg)
					}
				}
				i = next
			}
		}
	}
	p.rebalanceShared()
	return nil
}

// RemoveQuota dissolves class's partition, returning its capacity to the
// shared partition. The class's pages are dropped (they fault back in).
func (p *Pool) RemoveQuota(class string) {
	cs := p.classes[class]
	if !p.hasQuota(cs) {
		return
	}
	cs.part = p.shared
	p.rebalanceShared()
}

// rebalanceShared recomputes the shared partition's capacity as the total
// minus all quotas and evicts overflow.
func (p *Pool) rebalanceShared() {
	q := 0
	for _, cs := range p.order {
		if p.hasQuota(cs) {
			q += cs.part.capacity
		}
	}
	p.shared.setCapacity(p.cfg.Capacity-q, p.cfg.MidpointFraction)
	p.shrinkToCapacity(p.shared)
}

func (p *Pool) shrinkToCapacity(part *partition) {
	for part.len() > part.capacity {
		victim, ok := part.evict()
		if !ok {
			break
		}
		p.flushIfDirty(victim)
	}
}

// Quotas returns a copy of the current class → quota map.
func (p *Pool) Quotas() map[string]int {
	out := make(map[string]int)
	for _, cs := range p.order {
		if p.hasQuota(cs) {
			out[cs.name] = cs.part.capacity
		}
	}
	return out
}

// SharedCapacity reports the current capacity of the shared partition.
func (p *Pool) SharedCapacity() int { return p.shared.capacity }
