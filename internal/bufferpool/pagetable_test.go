package bufferpool

import (
	"encoding/binary"
	"testing"
)

// pageWithHome returns the smallest page id above after whose probe
// starts at slot home of p's page table.
func pageWithHome(p *partition, home int, after uint64) uint64 {
	for id := after + 1; ; id++ {
		if p.home(id) == home {
			return id
		}
	}
}

// TestPageTableDeleteAcrossWrap deletes the head of a probe cluster that
// wraps from the table's last slot to its first: the entries behind it
// whose home precedes the hole move back across the end, and one already
// at its home stays.
func TestPageTableDeleteAcrossWrap(t *testing.T) {
	p := newPartition(0, 0)
	last := len(p.slots) - 1
	atZero := pageWithHome(p, 0, 0)        // lands in slot 0
	head := pageWithHome(p, last, 0)       // lands in the last slot
	wrapped := pageWithHome(p, last, head) // home last, lands in slot 1
	behind := pageWithHome(p, 0, atZero)   // home 0, lands in slot 2
	nodes := map[uint64]int32{}
	for _, id := range []uint64{atZero, head, wrapped, behind} {
		nodes[id] = p.alloc(id, 0)
	}
	wantSlots := func(want map[int]uint64) {
		t.Helper()
		for s, id := range want {
			i, ok := nodes[id]
			if !ok {
				i = nilNode
			}
			if p.slots[s] != i {
				t.Fatalf("slot %d holds node %d, want %d (page %d); slots %v", s, p.slots[s], i, id, p.slots)
			}
		}
	}
	wantSlots(map[int]uint64{last: head, 0: atZero, 1: wrapped, 2: behind})

	p.release(nodes[head])
	delete(nodes, head)
	wantSlots(map[int]uint64{last: wrapped, 0: atZero, 1: behind, 2: 0})
	for id, i := range nodes {
		if got := p.find(id); got != i {
			t.Fatalf("find(%d) = %d, want %d", id, got, i)
		}
	}
	if got := p.find(head); got != nilNode {
		t.Fatalf("deleted page %d still maps to node %d", head, got)
	}
}

// FuzzPageTable runs set, get and delete operations on a partition's page
// table and checks every lookup against a Go map. Each operation is three
// bytes: the operation (byte mod 3: set, get, delete) and a little-endian
// 16-bit page id.
func FuzzPageTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		p := newPartition(0, 0)
		want := map[uint64]int32{}
		for ; len(ops) >= 3; ops = ops[3:] {
			id := uint64(binary.LittleEndian.Uint16(ops[1:]))
			i, ok := want[id]
			if !ok {
				i = nilNode
			}
			if got := p.find(id); got != i {
				t.Fatalf("find(%d) = %d, want %d", id, got, i)
			}
			switch ops[0] % 3 {
			case 0:
				if !ok {
					want[id] = p.alloc(id, 0)
				}
			case 2:
				if ok {
					p.release(i)
					delete(want, id)
				}
			}
			if p.used != len(want) || 2*p.used > len(p.slots) {
				t.Fatalf("%d slots used of %d, want %d", p.used, len(p.slots), len(want))
			}
		}
		for id, i := range want {
			if got := p.find(id); got != i {
				t.Fatalf("find(%d) = %d at the end, want %d", id, got, i)
			}
		}
	})
}
