package benchsuite

// This file defines the curated suite: the hot paths the paper's §4
// "minimal intrusiveness" claim rests on, plus the repo's four flagship
// experiments as macro scenarios. Keep scenario names stable — they are
// the join key Compare uses across BENCH_*.json generations.

import (
	"time"

	"outlierlb/internal/admission"
	"outlierlb/internal/ctrlnet"
	"outlierlb/internal/experiments"
	"outlierlb/internal/metrics"
	"outlierlb/internal/mrc"
	"outlierlb/internal/obs"
	"outlierlb/internal/sim"
	"outlierlb/internal/simcore"
	"outlierlb/internal/sla"
	"outlierlb/internal/wltemporal"
)

// benchClasses registers n query classes with c and returns their
// accumulation slots.
func benchClasses(c *metrics.Collector, n int) []metrics.Slot {
	slots := make([]metrics.Slot, n)
	for i := range slots {
		slots[i] = c.SlotFor(metrics.ClassID{App: "bench", Class: string(rune('A'+i%26)) + string(rune('a'+i/26))})
	}
	return slots
}

// benchRecords builds the log records of the given number of queries,
// dealt to the classes round-robin, in the order the engine logs them:
// each missed page's write-back (if it evicted a dirty page) and demand
// read during the page loop, then the access count, the miss count and
// the completion. The mix repeats every 15 queries and follows the
// engine log of Figure 3 at scenario seed 8, the run perfbench's
// `--workload fig3-provisioning --seed 7 --trace 1` profiles (pool hit
// ratio 0.984, no read-ahead, no lock waits). Per executed query that
// log held 20.3 page accesses, 0.13 miss records carrying 0.32 missed
// pages, 0.32 single-page demand reads and 0.20 single-page
// write-backs; here 2 queries in 15 miss, one 4 pages with 2
// write-backs and one 1 page with 1, for 0.33 reads, 0.20 write-backs
// and 2.67 records per query. Every record carries its class's slot,
// write-backs included, as the engine logs them.
func benchRecords(slots []metrics.Slot, queries int) []metrics.Record {
	var recs []metrics.Record
	for q := 0; q < queries; q++ {
		slot := slots[q%len(slots)]
		misses, writeBacks := 0, 0
		switch q % 15 {
		case 0:
			misses, writeBacks = 4, 2
		case 7:
			misses, writeBacks = 1, 1
		}
		for i := 0; i < misses; i++ {
			if i < writeBacks {
				recs = append(recs, metrics.Record{Kind: metrics.RecIO, Slot: slot, Value: 1})
			}
			recs = append(recs, metrics.Record{Kind: metrics.RecIO, Slot: slot, Value: 1})
		}
		recs = append(recs, metrics.Record{Kind: metrics.RecAccess, Slot: slot, Value: 20})
		if misses > 0 {
			recs = append(recs, metrics.Record{Kind: metrics.RecMiss, Slot: slot, Value: float64(misses)})
		}
		recs = append(recs, metrics.Record{Kind: metrics.RecQuery, Slot: slot, Value: 0.01 * float64(1+q%7)})
	}
	return recs
}

// intervalMetrics condenses a run's per-interval SLA series into one
// MacroMetrics: the median across intervals of each latency percentile
// (robust to fault-window spikes) and the mean throughput. Intervals
// that completed no queries are skipped.
func intervalMetrics(ivs []sla.Interval) MacroMetrics {
	var p50s, p95s, p99s []float64
	var tput float64
	n := 0
	for _, iv := range ivs {
		if iv.Queries == 0 {
			continue
		}
		p50s = append(p50s, iv.P50Latency)
		p95s = append(p95s, iv.P95Latency)
		p99s = append(p99s, iv.P99Latency)
		tput += iv.Throughput
		n++
	}
	if n == 0 {
		return MacroMetrics{}
	}
	return MacroMetrics{
		LatencyP50: percentile(p50s, 0.5),
		LatencyP95: percentile(p95s, 0.5),
		LatencyP99: percentile(p99s, 0.5),
		Throughput: tput / float64(n),
	}
}

// Suite returns the curated scenarios, micro first. The list is the
// contract behind every committed BENCH_*.json: append new scenarios
// freely, but renaming or removing one breaks the Compare trajectory.
func Suite() []Scenario {
	return []Scenario{
		{
			Name: "logbuffer-record",
			Kind: "micro",
			Doc:  "append one record to a private §4 logging buffer draining into a collector",
			Micro: func() (func(int), func()) {
				c := metrics.NewCollector()
				recs := benchRecords(benchClasses(c, 16), 192)
				buf := metrics.NewLogBuffer(4096, c.Apply)
				i := 0
				return func(n int) {
					for k := 0; k < n; k++ {
						buf.Append(recs[i%len(recs)])
						i++
					}
				}, nil
			},
		},
		{
			Name: "collector-apply-slotted",
			Kind: "micro",
			Doc:  "fold the 514 records of 192 queries over 16 classes, slotted as the engine logs them, into a collector (one op = one batch)",
			Micro: func() (func(int), func()) {
				c := metrics.NewCollector()
				batch := benchRecords(benchClasses(c, 16), 192)
				return func(n int) {
					for k := 0; k < n; k++ {
						c.Apply(batch)
					}
				}, nil
			},
		},
		{
			Name: "collector-snapshot",
			Kind: "micro",
			Doc:  "apply one query's records for each of 32 classes (91 records) and close a measurement interval (rate computation + counter reset)",
			Micro: func() (func(int), func()) {
				c := metrics.NewCollector()
				batch := benchRecords(benchClasses(c, 32), 32)
				return func(n int) {
					for k := 0; k < n; k++ {
						c.Apply(batch)
						c.Snapshot(10.0, false)
					}
				}, nil
			},
		},
		{
			Name: "admission-tryacquire",
			Kind: "micro",
			Doc:  "admission entry gate: Admit + TryEnqueue slot reservation + Commit, per query",
			Micro: func() (func(int), func()) {
				a := admission.NewController(admission.Config{Rate: 1e12, Burst: 1e12, QueueCap: 1024, Deadline: 10})
				id := metrics.ClassID{App: "bench", Class: "browse"}
				q := a.QueueFor("db1")
				now := 0.0
				return func(n int) {
					for k := 0; k < n; k++ {
						now++
						if err := a.Admit(now, id); err != nil {
							panic(err)
						}
						if r := a.TryEnqueue(&q, "db1", now, 0.5); r != "" {
							panic(r)
						}
						q.Commit(now + 0.1)
					}
				}, nil
			},
		},
		{
			Name: "mattson-access",
			Kind: "micro",
			Doc:  "one Mattson stack-distance update (dead-timestamp bitmap) over a cyclic 1021-page stream",
			Micro: func() (func(int), func()) {
				s := mrc.NewStackSimulator()
				p := uint64(0)
				return func(n int) {
					for k := 0; k < n; k++ {
						s.Access(p % 1021)
						p++
					}
				}, nil
			},
		},
		{
			Name: "tracing-disabled",
			Kind: "micro",
			Doc:  "per-query tracing cost with sampling off: the §4 near-zero disabled path (two branches, no work)",
			Micro: func() (func(int), func()) {
				tr := obs.NewTracer(1, 0, 64)
				now := 0.0
				return func(n int) {
					for k := 0; k < n; k++ {
						now++
						if sp := tr.StartQuery(now, "bench", "browse"); sp != nil {
							sp.Finish(now)
						}
					}
				}, nil
			},
		},
		{
			Name: "tracing-sampled",
			Kind: "micro",
			Doc:  "per-query tracing cost at sample rate 1.0: root + attempt + exec spans, ring publish",
			Micro: func() (func(int), func()) {
				tr := obs.NewTracer(1, 1.0, 64)
				now := 0.0
				return func(n int) {
					for k := 0; k < n; k++ {
						now++
						sp := tr.StartQuery(now, "bench", "browse")
						asp := sp.Child(now, obs.SpanAttempt, "db1")
						asp.Child(now, obs.SpanExec, "engine-0").Finish(now + 0.1)
						asp.Finish(now + 0.1)
						sp.Finish(now + 0.1)
					}
				}, nil
			},
		},
		{
			Name: "eventqueue-pushpop",
			Kind: "micro",
			Doc:  "one event push + pop through the simcore min-heap at a steady depth of 1024",
			Micro: func() (func(int), func()) {
				q := simcore.NewQueue()
				t := 0.0
				for i := 0; i < 1024; i++ {
					t++
					q.Push(t, simcore.KindArrival, func() {})
				}
				return func(n int) {
					for k := 0; k < n; k++ {
						t++
						q.Push(t, simcore.KindArrival, func() {})
						q.Pop()
					}
				}, nil
			},
		},
		{
			Name: "eventqueue-timer-cancel",
			Kind: "micro",
			Doc:  "the lazy-cancel protocol round trip: push a timer, cancel it (generation bump), pop past the dead entry",
			Micro: func() (func(int), func()) {
				q := simcore.NewQueue()
				t := 0.0
				return func(n int) {
					for k := 0; k < n; k++ {
						t++
						dead := q.Push(t, simcore.KindArrival, func() {})
						q.Push(t, simcore.KindArrival, func() {})
						dead.Cancel()
						q.Pop() // skips the cancelled head, delivers the live event
					}
				}, nil
			},
		},
		{
			Name: "ctrlnet-send-inline",
			Kind: "micro",
			Doc:  "one control-plane message over a perfect link: inline synchronous delivery, no event, no RNG draw — the per-interaction overhead the bit-identity argument pays",
			Micro: func() (func(int), func()) {
				s := sim.NewEngine(1)
				n := ctrlnet.New(s, 1)
				sink := 0
				n.Endpoint("ctl", func(from string, payload any) { sink++ })
				n.Endpoint("srv", func(from string, payload any) { sink++ })
				return func(ops int) {
					for k := 0; k < ops; k++ {
						n.Send("ctl", "srv", k)
					}
				}, nil
			},
		},
		{
			Name: "ctrlnet-send-deliver",
			Kind: "micro",
			Doc:  "one control-plane message over a latency-bearing link: jitter draw, KindMessage event push, pop and handler dispatch",
			Micro: func() (func(int), func()) {
				s := sim.NewEngine(1)
				n := ctrlnet.New(s, 1)
				sink := 0
				n.Endpoint("ctl", func(from string, payload any) { sink++ })
				n.Endpoint("srv", func(from string, payload any) { sink++ })
				n.SetLink("ctl", "srv", ctrlnet.Config{Latency: 0.001, Jitter: 0.001})
				return func(ops int) {
					for k := 0; k < ops; k++ {
						n.Send("ctl", "srv", k)
						s.Run()
					}
				}, nil
			},
		},
		{
			Name: "temporal-arrival-gen",
			Kind: "micro",
			Doc:  "one open-loop arrival draw: composed diurnal+flash-crowd rate-shape evaluation plus an MMPP phase-tracked interarrival draw",
			Micro: func() (func(int), func()) {
				rng := sim.NewRNG(1)
				shape := wltemporal.Add(
					wltemporal.Diurnal(40, 20, 600),
					wltemporal.FlashCrowd(120, 300, 10, 1.5),
				)
				proc := &wltemporal.MMPP{}
				now := 0.0
				return func(n int) {
					for k := 0; k < n; k++ {
						delay, _ := proc.Next(rng, now, shape(now))
						now += delay
					}
				}, nil
			},
		},
		{
			Name: "tracev2-replay-feed",
			Kind: "micro",
			Doc:  "one op = feeding a 512-arrival workload-trace-v2 through a fresh event core into a counting submit (chained KindArrival scheduling included)",
			Micro: func() (func(int), func()) {
				tr := &wltemporal.Trace{
					Cohorts: []string{"bench"},
					Classes: []metrics.ClassID{{App: "bench", Class: "Aa"}},
				}
				for i := 0; i < 512; i++ {
					tr.Arrivals = append(tr.Arrivals, wltemporal.Arrival{T: float64(i) * 0.01})
				}
				sink := 0
				submit := func(string, float64, metrics.ClassID) error { sink++; return nil }
				return func(n int) {
					for k := 0; k < n; k++ {
						s := sim.NewEngine(1)
						rep, err := wltemporal.NewReplayer(s, tr, submit)
						if err != nil {
							panic(err)
						}
						rep.Start()
						s.Run()
					}
				}, nil
			},
		},
		{
			Name: "fig3-provisioning",
			Kind: "macro",
			Doc:  "Figure 3: sinusoid load, reactive provisioning, 1400 s simulated",
			Macro: func(seed uint64) (MacroMetrics, error) {
				return intervalMetrics(experiments.Options{}.Figure3(seed).Intervals), nil
			},
		},
		{
			Name: "fig4-diagnosis",
			Kind: "macro",
			Doc:  "Figure 4: index-drop diagnosis, stable signature vs degraded plan, 520 s simulated",
			Macro: func(seed uint64) (MacroMetrics, error) {
				r := experiments.Options{}.Figure4(seed)
				return intervalMetrics([]sla.Interval{r.Measured}), nil
			},
		},
		{
			Name: "chaos-grayfailure",
			Kind: "macro",
			Doc:  "gray-failure chaos drill: 8× disk degradation, breaker trip and recovery, 600 s simulated",
			Macro: func(seed uint64) (MacroMetrics, error) {
				r, err := experiments.Options{}.ChaosGrayFailure(seed)
				if err != nil {
					return MacroMetrics{}, err
				}
				return intervalMetrics(r.Intervals), nil
			},
		},
		{
			Name: "overload-brownout",
			Kind: "macro",
			Doc:  "overload protection: 2× load pulse, impact-ranked shedding and readmission, 650 s simulated",
			Macro: func(seed uint64) (MacroMetrics, error) {
				r, err := experiments.Options{}.Overload(seed)
				if err != nil {
					return MacroMetrics{}, err
				}
				return intervalMetrics(r.Intervals), nil
			},
		},
		{
			Name: "eventcore-throughput",
			Kind: "macro",
			Doc:  "raw event-core throughput: 16 self-rescheduling arrival chains through the simcore run loop; throughput_qps is simulated interactions per wall-second (target ≥ 10M/s)",
			Macro: func(seed uint64) (MacroMetrics, error) {
				// Every interaction is one push + one pop + one clock
				// advance through a 16-deep heap — the arrival pattern
				// of concurrent self-rescheduling clients (the
				// eventqueue-pushpop micro covers the deep-heap case).
				// Deterministic by construction (fixed chain periods),
				// so the seed is unused; only the wall clock varies run
				// to run.
				_ = seed
				const chains = 16
				const total = 4 << 20
				l := simcore.NewLoop()
				left := total
				var fns [chains]func()
				for i := 0; i < chains; i++ {
					period := 1.0 + float64(i)/chains
					fn := func() {
						if left <= 0 {
							return
						}
						left--
						l.Schedule(period, simcore.KindArrival, fns[i])
					}
					fns[i] = fn
					l.Schedule(period, simcore.KindArrival, fn)
				}
				start := time.Now()
				l.Run()
				elapsed := time.Since(start).Seconds()
				return MacroMetrics{Throughput: float64(total) / elapsed}, nil
			},
		},
	}
}
