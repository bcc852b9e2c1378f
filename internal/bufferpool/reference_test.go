package bufferpool

import (
	"container/list"
	"fmt"
)

// This file keeps the container/list buffer pool that Pool's intrusive
// LRU replaced, as the reference model the differential test drives in
// lockstep with Pool. Its code is the replaced implementation with the
// types renamed, except that it records the order classes are first
// used in, so that FlushAll walks partitions in a defined order (shared
// first, then each quota partition in that order) instead of map order.

// refShared is the partition key for all classes without an explicit quota.
const refShared = ""

type refPage struct {
	id    uint64
	class string // owning partition key
	dirty bool
}

type refPartition struct {
	capacity int
	// The LRU list is split at a midpoint into a young (MRU-side) and an
	// old (LRU-side) sublist, as in InnoDB. With midpoint = 0 the old
	// sublist is unused and the partition is a classic LRU.
	young *list.List // front = MRU
	old   *list.List // front = midpoint boundary, back = eviction victim
	table map[uint64]*refEntry
	// oldCap is the old sublist's target size; 0 disables midpoint
	// insertion.
	oldCap int
}

type refEntry struct {
	el    *list.Element
	inOld bool
}

func newRefPartition(capacity int, midpoint float64) *refPartition {
	p := &refPartition{
		capacity: capacity,
		young:    list.New(),
		old:      list.New(),
		table:    make(map[uint64]*refEntry),
	}
	p.setCapacity(capacity, midpoint)
	return p
}

func (p *refPartition) setCapacity(capacity int, midpoint float64) {
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

func (p *refPartition) len() int { return p.young.Len() + p.old.Len() }

// lookup returns the entry for id, if resident.
func (p *refPartition) lookup(id uint64) (*refEntry, bool) {
	e, ok := p.table[id]
	return e, ok
}

// touch records a hit on e: young pages move to the MRU end; old pages
// are promoted into the young sublist (the midpoint policy's "second
// access" promotion).
func (p *refPartition) touch(e *refEntry) {
	if !e.inOld {
		p.young.MoveToFront(e.el)
		return
	}
	pg := e.el.Value.(refPage)
	p.old.Remove(e.el)
	e.el = p.young.PushFront(pg)
	e.inOld = false
	p.rebalance()
}

// add inserts pg, assuming capacity has been made available. With
// midpoint insertion enabled, new pages enter at the head of the old
// sublist; otherwise at the MRU end.
func (p *refPartition) add(pg refPage) {
	e := &refEntry{}
	if p.oldCap > 0 {
		e.el = p.old.PushFront(pg)
		e.inOld = true
	} else {
		e.el = p.young.PushFront(pg)
	}
	p.table[pg.id] = e
	p.rebalance()
}

// rebalance demotes young-tail pages into the old sublist until the old
// sublist holds its target share (only with midpoint insertion).
func (p *refPartition) rebalance() {
	if p.oldCap == 0 {
		return
	}
	for p.old.Len() < p.oldCap && p.young.Len() > 0 && p.len() >= p.capacity {
		tail := p.young.Back()
		pg := tail.Value.(refPage)
		p.young.Remove(tail)
		e := p.table[pg.id]
		e.el = p.old.PushFront(pg)
		e.inOld = true
	}
}

// evict removes the least valuable page and reports it (old tail first,
// then young tail). ok is false when the partition is empty.
func (p *refPartition) evict() (refPage, bool) {
	if tail := p.old.Back(); tail != nil {
		pg := tail.Value.(refPage)
		p.old.Remove(tail)
		delete(p.table, pg.id)
		return pg, true
	}
	if tail := p.young.Back(); tail != nil {
		pg := tail.Value.(refPage)
		p.young.Remove(tail)
		delete(p.table, pg.id)
		return pg, true
	}
	return refPage{}, false
}

// remove deletes a specific resident page.
func (p *refPartition) remove(id uint64) {
	e, ok := p.table[id]
	if !ok {
		return
	}
	if e.inOld {
		p.old.Remove(e.el)
	} else {
		p.young.Remove(e.el)
	}
	delete(p.table, id)
}

// refPool is the replaced Pool.
type refPool struct {
	cfg      Config
	parts    map[string]*refPartition // shared partition plus one per quota
	quota    map[string]int           // class -> quota pages
	stats    map[string]*Stats
	lastPage map[string]uint64             // per-class previous page, for sequential detection
	runLen   map[string]int                // per-class current sequential run length
	onMiss   func(class string, pages int) // I/O hook: demand misses + prefetch batches
	onFlush  func(class string, pages int) // I/O hook: dirty pages written back
	order    []string                      // classes in order of first use
}

// newRefPool is the replaced New.
func newRefPool(cfg Config) (*refPool, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("bufferpool: capacity must be positive, got %d", cfg.Capacity)
	}
	if cfg.ReadAheadRun > 0 && cfg.ReadAheadPages <= 0 {
		cfg.ReadAheadPages = 32
	}
	p := &refPool{
		cfg:      cfg,
		parts:    map[string]*refPartition{refShared: newRefPartition(cfg.Capacity, cfg.MidpointFraction)},
		quota:    make(map[string]int),
		stats:    make(map[string]*Stats),
		lastPage: make(map[string]uint64),
		runLen:   make(map[string]int),
	}
	return p, nil
}

// OnMiss registers a hook invoked with the number of pages read from disk
// on each demand miss or read-ahead batch. The engine uses it to charge
// I/O time and to count I/O block requests.
func (p *refPool) OnMiss(fn func(class string, pages int)) { p.onMiss = fn }

// OnFlush registers a hook invoked when a dirty page is written back to
// disk at eviction, charged to the class that dirtied the page.
func (p *refPool) OnFlush(fn func(class string, pages int)) { p.onFlush = fn }

// Capacity reports the total configured capacity in pages.
func (p *refPool) Capacity() int { return p.cfg.Capacity }

// partitionFor returns the partition serving class.
func (p *refPool) partitionFor(class string) *refPartition {
	if _, ok := p.quota[class]; ok {
		return p.parts[class]
	}
	return p.parts[refShared]
}

func (p *refPool) statsFor(class string) *Stats {
	s := p.stats[class]
	if s == nil {
		s = &Stats{}
		p.stats[class] = s
		p.use(class)
	}
	return s
}

// use records class's first use.
func (p *refPool) use(class string) {
	for _, c := range p.order {
		if c == class {
			return
		}
	}
	p.order = append(p.order, class)
}

// partsInOrder lists the shared partition, then each quota partition in
// its class's first-use order.
func (p *refPool) partsInOrder() []*refPartition {
	out := []*refPartition{p.parts[refShared]}
	for _, c := range p.order {
		if _, ok := p.quota[c]; ok {
			out = append(out, p.parts[c])
		}
	}
	return out
}

// insert places pg into part, evicting pages if needed, and reports
// whether an eviction happened. Evicted dirty pages are written back,
// charged to the class that dirtied them.
func (p *refPool) insert(part *refPartition, pg refPage) bool {
	if part.capacity <= 0 {
		return false // zero-quota partition caches nothing
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
	part.add(pg)
	return evicted
}

// flushIfDirty accounts the write-back of an evicted dirty page.
func (p *refPool) flushIfDirty(victim refPage) {
	if !victim.dirty {
		return
	}
	p.statsFor(victim.class).Flushes++
	if p.onFlush != nil {
		p.onFlush(victim.class, 1)
	}
}

// Write performs one logical page access that also dirties the page:
// the page will be written back to disk when evicted.
func (p *refPool) Write(class string, pg uint64) AccessResult {
	res := p.Access(class, pg)
	part := p.partitionFor(class)
	if e, ok := part.lookup(pg); ok {
		v := e.el.Value.(refPage)
		if !v.dirty {
			v.dirty = true
			e.el.Value = v
		}
	}
	return res
}

// FlushAll writes back every dirty page (as at a checkpoint), returning
// how many pages were flushed. Pages stay resident and become clean.
func (p *refPool) FlushAll() int {
	flushed := 0
	for _, part := range p.partsInOrder() {
		for _, l := range []*list.List{part.young, part.old} {
			for el := l.Front(); el != nil; el = el.Next() {
				v := el.Value.(refPage)
				if v.dirty {
					v.dirty = false
					el.Value = v
					p.statsFor(v.class).Flushes++
					if p.onFlush != nil {
						p.onFlush(v.class, 1)
					}
					flushed++
				}
			}
		}
	}
	return flushed
}

// DirtyPages counts currently dirty resident pages.
func (p *refPool) DirtyPages() int {
	n := 0
	for _, part := range p.parts {
		for _, l := range []*list.List{part.young, part.old} {
			for el := l.Front(); el != nil; el = el.Next() {
				if el.Value.(refPage).dirty {
					n++
				}
			}
		}
	}
	return n
}

// Access performs one logical page access on behalf of class and returns
// whether it hit and how many pages read-ahead fetched. The miss hook is
// called for the demand read and for the prefetch batch (if any).
func (p *refPool) Access(class string, pg uint64) AccessResult {
	part := p.partitionFor(class)
	st := p.statsFor(class)
	st.Accesses++

	var res AccessResult
	if e, ok := part.lookup(pg); ok {
		part.touch(e)
		st.Hits++
		res.Hit = true
	} else {
		st.Misses++
		if p.insert(part, refPage{id: pg, class: class}) {
			st.Evictions++
		}
		if p.onMiss != nil {
			p.onMiss(class, 1)
		}
	}

	// Sequential read-ahead: a run of consecutive pages triggers a
	// prefetch of the next ReadAheadPages pages, mirroring InnoDB's
	// linear read-ahead.
	if p.cfg.ReadAheadRun > 0 {
		if last, ok := p.lastPage[class]; ok && pg == last+1 {
			p.runLen[class]++
		} else {
			p.runLen[class] = 0
		}
		p.lastPage[class] = pg
		if p.runLen[class] >= p.cfg.ReadAheadRun {
			p.runLen[class] = 0
			n := p.prefetch(class, pg+1, p.cfg.ReadAheadPages)
			st.Prefetches += int64(n)
			res.Prefetched = n
		}
	}
	return res
}

// prefetch brings up to n pages starting at first into class's partition,
// skipping pages already resident, and returns how many were fetched.
func (p *refPool) prefetch(class string, first uint64, n int) int {
	part := p.partitionFor(class)
	st := p.statsFor(class)
	fetched := 0
	for i := 0; i < n; i++ {
		id := first + uint64(i)
		if _, ok := part.table[id]; ok {
			continue
		}
		if part.capacity <= 0 {
			break
		}
		if p.insert(part, refPage{id: id, class: class}) {
			st.Evictions++
		}
		fetched++
	}
	if fetched > 0 && p.onMiss != nil {
		p.onMiss(class, fetched)
	}
	return fetched
}

// Contains reports whether page pg is resident in the partition serving
// class.
func (p *refPool) Contains(class string, pg uint64) bool {
	_, ok := p.partitionFor(class).table[pg]
	return ok
}

// Resident reports the number of pages currently cached across all
// partitions.
func (p *refPool) Resident() int {
	total := 0
	for _, part := range p.parts {
		total += part.len()
	}
	return total
}

// Stats returns a copy of the counters for class.
func (p *refPool) Stats(class string) Stats {
	if s := p.stats[class]; s != nil {
		return *s
	}
	return Stats{}
}

// TotalStats sums the counters across every class — the pool-wide view
// the observability layer exposes as hit-ratio and traffic gauges.
func (p *refPool) TotalStats() Stats {
	var total Stats
	for _, s := range p.stats {
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
func (p *refPool) ResetStats() {
	for _, s := range p.stats {
		*s = Stats{}
	}
}

// Quota reports the quota for class and whether one is set.
func (p *refPool) Quota(class string) (int, bool) {
	q, ok := p.quota[class]
	return q, ok
}

// SetQuota gives class a dedicated partition of q pages, carved out of the
// shared partition. The class's pages currently in the shared partition
// are migrated (up to the quota); the shared partition shrinks by q and
// evicts any overflow. Setting a quota for a class that already has one
// resizes its partition. An error is returned if quotas would exceed the
// pool capacity.
func (p *refPool) SetQuota(class string, q int) error {
	if class == refShared {
		return fmt.Errorf("bufferpool: empty class name is reserved")
	}
	if q < 0 {
		return fmt.Errorf("bufferpool: negative quota %d for %q", q, class)
	}
	sum := q
	for c, cq := range p.quota {
		if c != class {
			sum += cq
		}
	}
	if sum > p.cfg.Capacity {
		return fmt.Errorf("bufferpool: quotas %d pages exceed capacity %d", sum, p.cfg.Capacity)
	}

	p.use(class)
	if _, had := p.quota[class]; had {
		p.quota[class] = q
		part := p.parts[class]
		part.setCapacity(q, p.cfg.MidpointFraction)
		p.shrinkToCapacity(part)
	} else {
		p.quota[class] = q
		part := newRefPartition(q, p.cfg.MidpointFraction)
		p.parts[class] = part
		// Migrate the class's resident pages from the shared partition,
		// preserving recency order (walk MRU to LRU within each sublist
		// and push to the back of the new partition's young list).
		sh := p.parts[refShared]
		migrate := func(l *list.List) {
			for el := l.Front(); el != nil; {
				next := el.Next()
				pg := el.Value.(refPage)
				if pg.class == class {
					sh.remove(pg.id)
					if part.len() < part.capacity {
						part.table[pg.id] = &refEntry{el: part.young.PushBack(pg)}
					} else {
						p.flushIfDirty(pg)
					}
				}
				el = next
			}
		}
		migrate(sh.young)
		migrate(sh.old)
	}
	p.rebalanceShared()
	return nil
}

// RemoveQuota dissolves class's partition, returning its capacity to the
// shared partition. The class's pages are dropped (they fault back in).
func (p *refPool) RemoveQuota(class string) {
	if _, ok := p.quota[class]; !ok {
		return
	}
	delete(p.quota, class)
	delete(p.parts, class)
	p.rebalanceShared()
}

// rebalanceShared recomputes the shared partition's capacity as the total
// minus all quotas and evicts overflow.
func (p *refPool) rebalanceShared() {
	q := 0
	for _, cq := range p.quota {
		q += cq
	}
	sh := p.parts[refShared]
	sh.setCapacity(p.cfg.Capacity-q, p.cfg.MidpointFraction)
	p.shrinkToCapacity(sh)
}

func (p *refPool) shrinkToCapacity(part *refPartition) {
	for part.len() > part.capacity {
		victim, ok := part.evict()
		if !ok {
			break
		}
		p.flushIfDirty(victim)
	}
}

// Quotas returns a copy of the current class → quota map.
func (p *refPool) Quotas() map[string]int {
	out := make(map[string]int, len(p.quota))
	for c, q := range p.quota {
		out[c] = q
	}
	return out
}

// SharedCapacity reports the current capacity of the shared partition.
func (p *refPool) SharedCapacity() int { return p.parts[refShared].capacity }
