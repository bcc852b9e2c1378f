package obs

import (
	"reflect"
	"testing"
)

// fixedRing is the event log before it grew by use: a ring allocated at
// full capacity. TestEventLogGrowsLikeFixedRing holds EventLog to it.
type fixedRing struct {
	buf      []Event
	start, n int
	total    uint64
}

func (r *fixedRing) append(e Event) Event {
	e.Seq = r.total
	r.total++
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = e
		r.n++
	} else {
		r.buf[r.start] = e
		r.start = (r.start + 1) % len(r.buf)
	}
	return e
}

func (r *fixedRing) recent(n int) []Event {
	if n <= 0 || n > r.n {
		n = r.n
	}
	out := make([]Event, n)
	first := r.start + r.n - n
	for i := 0; i < n; i++ {
		out[i] = r.buf[(first+i)%len(r.buf)]
	}
	return out
}

// TestEventLogGrowsLikeFixedRing appends past capacity into logs of
// several capacities, including ones that are not a power of two times
// the initial length, and after every append compares the stored event,
// Len, Total and Recent(n) for every n with a ring allocated at full
// capacity: before the buffer reaches capacity, at it, and while it
// wraps.
func TestEventLogGrowsLikeFixedRing(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 63, 64, 65, 100, 129} {
		log := NewEventLog(capacity)
		ref := &fixedRing{buf: make([]Event, capacity)}
		for i := 0; i < 2*capacity+70; i++ {
			e := Event{Kind: EventQuota, Time: float64(i), Server: "db1"}
			if got, want := log.Append(e), ref.append(e); !reflect.DeepEqual(got, want) {
				t.Fatalf("cap %d append %d: stored %+v, want %+v", capacity, i, got, want)
			}
			if log.Len() != ref.n || log.Total() != ref.total {
				t.Fatalf("cap %d append %d: Len %d Total %d, want %d %d",
					capacity, i, log.Len(), log.Total(), ref.n, ref.total)
			}
			for n := -1; n <= ref.n+1; n++ {
				if got, want := log.Recent(n), ref.recent(n); !sameEvents(got, want) {
					t.Fatalf("cap %d append %d: Recent(%d) = %+v, want %+v", capacity, i, n, got, want)
				}
			}
		}
		if len(log.buf) != capacity {
			t.Fatalf("cap %d: buffer length %d after wrapping, want the capacity", capacity, len(log.buf))
		}
	}
}

// sameEvents compares two event lists by sequence number and time, which
// the test makes unique per event.
func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].Time != b[i].Time {
			return false
		}
	}
	return true
}

// TestEventLogStartsSmall: a large log allocates its buffer by use.
func TestEventLogStartsSmall(t *testing.T) {
	log := NewEventLog(1 << 14)
	if len(log.buf) != eventLogInitial {
		t.Fatalf("new log buffer holds %d events, want %d", len(log.buf), eventLogInitial)
	}
	for i := 0; i < 110; i++ {
		log.Append(Event{Kind: EventQuota})
	}
	if len(log.buf) != 2*eventLogInitial {
		t.Fatalf("after 110 events the buffer holds %d, want %d", len(log.buf), 2*eventLogInitial)
	}
}
