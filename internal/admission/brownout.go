package admission

import "outlierlb/internal/metrics"

// brownout is the shed-list state machine. The controller sheds the
// lowest-impact class first, so the shed order is ascending impact;
// its default re-admission is LIFO — the last (highest-impact, most
// valuable) class shed is the first to return — and every re-admission
// is gated on a streak of consecutive stable intervals so one quiet
// interval mid-overload cannot re-admit a class the next interval will
// have to shed again. A class's shed flag lives on its Class, so the
// entry gate reads it without a lookup of its own.
//
// Callers hold the owning Controller's lock; brownout itself is not
// concurrent-safe.
type brownout struct {
	// order is the shed sequence, oldest first. LIFO re-admission pops
	// from the back.
	order  []*Class
	streak int // consecutive stable intervals since the last violation
}

// shed appends c to the shed list and returns its 1-based position in
// the shed order; a duplicate is refused.
func (b *brownout) shed(c *Class) (int, bool) {
	if c.shed {
		return 0, false
	}
	c.shed = true
	b.order = append(b.order, c)
	// A fresh shed proves the system was not stable; the re-admission
	// streak restarts.
	b.streak = 0
	return len(b.order), true
}

// readmitTick advances the hysteresis by one stable interval and, once
// the streak reaches readmitAfter, re-admits the class choose picks from
// the current shed order (oldest first). The streak restarts after each
// re-admission so classes return one at a time, each earning its own
// stable streak. A chooser returning a class not on the list falls back
// to LIFO, so a buggy policy cannot wedge re-admission.
func (b *brownout) readmitTick(readmitAfter int, choose func([]metrics.ClassID) metrics.ClassID) (metrics.ClassID, bool) {
	if len(b.order) == 0 {
		b.streak = 0
		return metrics.ClassID{}, false
	}
	b.streak++
	if b.streak < readmitAfter {
		return metrics.ClassID{}, false
	}
	b.streak = 0
	id := choose(b.shedClasses())
	for _, c := range b.order {
		if c.id == id {
			b.readmit(c)
			return id, true
		}
	}
	c := b.order[len(b.order)-1]
	b.readmit(c)
	return c.id, true
}

// readmit removes c from the shed list wherever it sits in the order,
// reporting whether it was shed. Used by the watchdog's rollback of a
// shed action and by policy-driven re-admission.
func (b *brownout) readmit(c *Class) bool {
	if !c.shed {
		return false
	}
	c.shed = false
	for i, got := range b.order {
		if got == c {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
	return true
}

func (b *brownout) violationTick() { b.streak = 0 }

func (b *brownout) shedClasses() []metrics.ClassID {
	var out []metrics.ClassID
	for _, c := range b.order {
		out = append(out, c.id)
	}
	return out
}
