package ctrlnet

import (
	"testing"

	"outlierlb/internal/sim"
)

// delivery is one observed handler invocation.
type delivery struct {
	from    string
	payload any
	at      float64
}

// harness builds a network with two endpoints ("ctl", "srv") recording
// every delivery with its virtual arrival time.
func harness(t *testing.T, seed uint64) (*sim.Engine, *Network, *[]delivery) {
	t.Helper()
	s := sim.NewEngine(1)
	n := New(s, seed)
	var got []delivery
	record := func(from string, payload any) {
		got = append(got, delivery{from: from, payload: payload, at: s.Now().Seconds()})
	}
	n.Endpoint("ctl", record)
	n.Endpoint("srv", record)
	return s, n, &got
}

func TestPerfectLinkDeliversInline(t *testing.T) {
	s, n, got := harness(t, 7)
	if !n.Send("ctl", "srv", "hello") {
		t.Fatal("send on a perfect link reported failure")
	}
	// Inline: delivered before Send returned, with no event scheduled.
	if len(*got) != 1 || (*got)[0].payload != "hello" {
		t.Fatalf("deliveries = %v, want the payload delivered synchronously", *got)
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events pending after a perfect-link send; inline delivery must not touch the queue", s.Pending())
	}
	st := n.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.InlineDelivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLatencyLinkSchedulesDelivery(t *testing.T) {
	s, n, got := harness(t, 7)
	n.SetLink("ctl", "srv", Config{Latency: 2})
	n.Send("ctl", "srv", "later")
	if len(*got) != 0 {
		t.Fatal("latency-bearing link delivered synchronously")
	}
	s.Run()
	if len(*got) != 1 || (*got)[0].at != 2 {
		t.Fatalf("deliveries = %v, want one at t=2", *got)
	}
	if n.Stats().InlineDelivered != 0 {
		t.Fatal("latency-bearing delivery counted as inline")
	}
}

// TestDupPreservesPayloadIdentity: a duplicated message delivers the
// SAME payload value twice — the transport must not copy, transform or
// re-wrap it, because the agents deduplicate on request IDs inside the
// payload, not on message envelopes.
func TestDupPreservesPayloadIdentity(t *testing.T) {
	s, n, got := harness(t, 3)
	n.SetLink("ctl", "srv", Config{Latency: 0.1, Dup: 1.0})
	type req struct{ id uint64 }
	payload := &req{id: 42}
	n.Send("ctl", "srv", payload)
	s.Run()
	if len(*got) != 2 {
		t.Fatalf("%d deliveries, want 2 (dup probability 1)", len(*got))
	}
	for i, d := range *got {
		if d.payload != payload {
			t.Fatalf("delivery %d carries %v, not the identical payload pointer", i, d.payload)
		}
	}
	if n.Stats().Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", n.Stats().Duplicated)
	}
}

// TestCutCancelsInFlight: a partition eats the packets already on the
// wire, not just future sends.
func TestCutCancelsInFlight(t *testing.T) {
	s, n, got := harness(t, 7)
	n.SetLink("ctl", "srv", Config{Latency: 5})
	n.Send("ctl", "srv", "doomed")
	s.RunUntil(sim.Time(1))
	n.Cut("ctl", "srv")
	s.Run()
	if len(*got) != 0 {
		t.Fatalf("deliveries = %v, want none; the partition must cancel in-flight messages", *got)
	}
	st := n.Stats()
	if st.PartitionCancelled != 1 {
		t.Fatalf("PartitionCancelled = %d, want 1", st.PartitionCancelled)
	}
	// Subsequent sends are refused at the source...
	if n.Send("ctl", "srv", "refused") {
		t.Fatal("send over a cut link reported success")
	}
	if n.Stats().PartitionDropped != 1 {
		t.Fatalf("PartitionDropped = %d, want 1", n.Stats().PartitionDropped)
	}
	// ...and the reverse direction still works (the cut is directional).
	if !n.Send("srv", "ctl", "reverse") {
		t.Fatal("reverse direction broken by a directional cut")
	}
	// Heal restores the forward direction.
	n.Heal("ctl", "srv")
	if !n.Send("ctl", "srv", "healed") {
		t.Fatal("send after heal reported failure")
	}
	s.Run()
}

func TestIsolateRestore(t *testing.T) {
	_, n, _ := harness(t, 7)
	n.Isolate("ctl")
	if !n.IsCut("ctl", "srv") || !n.IsCut("srv", "ctl") {
		t.Fatal("Isolate did not cut both directions")
	}
	n.Restore("ctl")
	if n.IsCut("ctl", "srv") || n.IsCut("srv", "ctl") {
		t.Fatal("Restore did not heal both directions")
	}
}

func TestUnregisteredDestinationIsBlackHole(t *testing.T) {
	_, n, _ := harness(t, 7)
	if n.Send("ctl", "ghost", "lost") {
		t.Fatal("send to an unregistered endpoint reported success")
	}
	if n.Stats().Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", n.Stats().Dropped)
	}
}

// TestSameLatencySendsDeliverFIFO: equal-latency messages on one link
// arrive in send order — the queue's (time, sequence) tie-break carries
// through the transport, so a lossless ordered link never reorders.
func TestSameLatencySendsDeliverFIFO(t *testing.T) {
	s, n, got := harness(t, 7)
	n.SetLink("ctl", "srv", Config{Latency: 1})
	for i := 0; i < 10; i++ {
		n.Send("ctl", "srv", i)
	}
	s.Run()
	if len(*got) != 10 {
		t.Fatalf("%d deliveries, want 10", len(*got))
	}
	for i, d := range *got {
		if d.payload != i {
			t.Fatalf("delivery %d carries %v; equal-latency messages reordered", i, d.payload)
		}
	}
}

// TestLossyLinkDeterminism: the same seed replays the same drops,
// duplications and delivery times exactly; a different seed does not.
func TestLossyLinkDeterminism(t *testing.T) {
	run := func(seed uint64) []delivery {
		s, n, got := harness(t, seed)
		n.SetDefaults(Config{Latency: 0.5, Jitter: 0.3, Drop: 0.3, Dup: 0.2})
		for i := 0; i < 200; i++ {
			n.Send("ctl", "srv", i)
			n.Send("srv", "ctl", 1000+i)
		}
		s.Run()
		return *got
	}
	a, b := run(17), run(17)
	if len(a) != len(b) {
		t.Fatalf("replay of the same seed delivered %d vs %d messages", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d diverges across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := run(18)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("two different seeds produced identical lossy schedules; the RNG is not wired in")
	}
}

// TestDropRateIsPlausible: over many sends the realized drop rate lands
// near the configured probability (coarse bounds; the draw is seeded, so
// this cannot flake).
func TestDropRateIsPlausible(t *testing.T) {
	s, n, got := harness(t, 99)
	n.SetDefaults(Config{Latency: 0.01, Drop: 0.3})
	const sends = 2000
	for i := 0; i < sends; i++ {
		n.Send("ctl", "srv", i)
	}
	s.Run()
	dropped := n.Stats().Dropped
	if dropped < sends/5 || dropped > sends/2 {
		t.Fatalf("dropped %d of %d at p=0.3; realized rate implausible", dropped, sends)
	}
	if uint64(len(*got))+dropped != sends {
		t.Fatalf("delivered %d + dropped %d != sent %d", len(*got), dropped, sends)
	}
}

// TestReplyFromHandlerInline: an endpoint replying from inside its
// handler over a perfect link completes the whole request/ack round trip
// within the original Send call — the property the control plane's
// bit-identity rests on.
func TestReplyFromHandlerInline(t *testing.T) {
	s := sim.NewEngine(1)
	n := New(s, 5)
	var acked bool
	n.Endpoint("ctl", func(from string, payload any) { acked = payload == "ack" })
	n.Endpoint("srv", func(from string, payload any) { n.Send("srv", from, "ack") })
	n.Send("ctl", "srv", "req")
	if !acked {
		t.Fatal("request/ack round trip did not complete inside the original Send")
	}
	if s.Pending() != 0 {
		t.Fatal("perfect round trip left events behind")
	}
}
