package core

import (
	"fmt"
	"sort"
	"strings"

	"outlierlb/internal/cluster"
	"outlierlb/internal/metrics"
	"outlierlb/internal/obs"
	"outlierlb/internal/server"
)

// DiagnosisReport renders the administrator's view of one server the way
// §5.5 describes the manual procedure: system counters first (CPU,
// disk), then per-query-class observations (metric impact relative to
// the stable state, lock holders, I/O ranking). It takes no action —
// it is the explainability companion to the controller's action log.
type DiagnosisReport struct {
	Server   string  `json:"server"`
	CPUUtil  float64 `json:"cpu_utilization"`
	DiskUtil float64 `json:"disk_utilization"`
	// Outliers lists flagged query contexts, strongest first.
	Outliers []OutlierLine `json:"outliers,omitempty"`
	// TopIO ranks classes by disk pages read, descending.
	TopIO []IOLine `json:"top_io,omitempty"`
	// TopLockHolders ranks classes by lock hold time, descending.
	TopLockHolders []string `json:"top_lock_holders,omitempty"`
}

// OutlierLine is one flagged query context.
type OutlierLine struct {
	Class     string   `json:"class"`
	Level     string   `json:"level"` // "mild" or "extreme"
	Metrics   []string `json:"metrics,omitempty"`
	MemoryHit bool     `json:"memory_hit"`
}

// IOLine is one class's share of the server's disk traffic.
type IOLine struct {
	Class string  `json:"class"`
	Pages int64   `json:"pages"`
	Share float64 `json:"share"`
}

// Diagnose builds a report for app on srv from the current interval's
// snapshots and the recorded stable state. The controller is not
// consulted; this is the read-only path an operator would follow.
func (c *Controller) Diagnose(now float64, app string, srv *server.Server,
	current map[metrics.ClassID]metrics.Vector) *DiagnosisReport {
	rep := &DiagnosisReport{
		Server:   srv.Name(),
		CPUUtil:  srv.CPUUtilization(now),
		DiskUtil: srv.Disk().UtilizationWindow(now),
	}
	sig := c.sigs.Get(app, srv.Name())
	for _, r := range Outliers(Detect(current, sig.Metrics, DefaultFences())) {
		line := OutlierLine{Class: r.ID.Class, Level: r.Max().String(), MemoryHit: r.MemoryOutlier()}
		for m := 0; m < metrics.NumMetrics; m++ {
			if r.ByMetric[m] != NotOutlier {
				line.Metrics = append(line.Metrics, metrics.Metric(m).String())
			}
		}
		rep.Outliers = append(rep.Outliers, line)
	}

	byClass := srv.Disk().PagesByClass()
	var total int64
	for _, n := range byClass {
		total += n
	}
	for key, n := range byClass {
		share := 0.0
		if total > 0 {
			share = float64(n) / float64(total)
		}
		rep.TopIO = append(rep.TopIO, IOLine{Class: key, Pages: n, Share: share})
	}
	sort.Slice(rep.TopIO, func(i, j int) bool {
		if rep.TopIO[i].Pages != rep.TopIO[j].Pages {
			return rep.TopIO[i].Pages > rep.TopIO[j].Pages
		}
		return rep.TopIO[i].Class < rep.TopIO[j].Class
	})
	if len(rep.TopIO) > 5 {
		rep.TopIO = rep.TopIO[:5]
	}

	for _, eng := range c.mgr.EnginesOn(srv) {
		holders := eng.Locks().TopHolders()
		if len(holders) > 3 {
			holders = holders[:3]
		}
		rep.TopLockHolders = append(rep.TopLockHolders, holders...)
	}
	return rep
}

// String renders the report as an operator-readable block.
func (r *DiagnosisReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "server %s: CPU %.0f%%, disk %.0f%%\n", r.Server, 100*r.CPUUtil, 100*r.DiskUtil)
	if len(r.Outliers) == 0 {
		b.WriteString("  no outlier query contexts\n")
	}
	for _, o := range r.Outliers {
		mem := ""
		if o.MemoryHit {
			mem = " [memory]"
		}
		fmt.Fprintf(&b, "  outlier %-24s %-8s %s%s\n", o.Class, o.Level, strings.Join(o.Metrics, ","), mem)
	}
	for _, io := range r.TopIO {
		fmt.Fprintf(&b, "  io      %-24s %8d pages (%.0f%%)\n", io.Class, io.Pages, 100*io.Share)
	}
	if len(r.TopLockHolders) > 0 {
		fmt.Fprintf(&b, "  locks   held longest by %s\n", strings.Join(r.TopLockHolders, ", "))
	}
	return b.String()
}

// DiagnoseServerLive re-runs the diagnosis for every application active
// on the named server against the most recent tick's retained snapshots.
// Unlike Diagnose/DiagnoseScheduler it consumes nothing: the interval
// counters are untouched, so the /debug/diagnosis endpoint can call it
// repeatedly. It returns obs.NotReadyError before the first tick.
func (c *Controller) DiagnoseServerLive(name string) ([]*DiagnosisReport, error) {
	var srv *server.Server
	for _, s := range c.mgr.Servers() {
		if s.Name() == name {
			srv = s
			break
		}
	}
	if srv == nil {
		return nil, fmt.Errorf("core: unknown server %q", name)
	}
	if c.lastSnaps == nil {
		return nil, obs.NotReadyError{Reason: "no measurement interval has closed yet"}
	}
	// Collect the applications with per-class data on this server's
	// engines, merging across engines in case a server hosts several.
	byApp := make(map[string]map[metrics.ClassID]metrics.Vector)
	for _, eng := range c.mgr.EnginesOn(srv) {
		for app, vectors := range c.lastSnaps[eng] {
			merged := byApp[app]
			if merged == nil {
				merged = make(map[metrics.ClassID]metrics.Vector, len(vectors))
				byApp[app] = merged
			}
			for id, v := range vectors {
				merged[id] = v
			}
		}
	}
	apps := make([]string, 0, len(byApp))
	for app := range byApp {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	out := make([]*DiagnosisReport, 0, len(apps))
	for _, app := range apps {
		out = append(out, c.Diagnose(c.lastSnapsAt, app, srv, byApp[app]))
	}
	if len(out) == 0 {
		return nil, obs.NotReadyError{Reason: fmt.Sprintf("no query-class data on server %q yet", name)}
	}
	return out, nil
}

// DiagnoseScheduler is a convenience that snapshots every replica of an
// application and renders one report per server.
func (c *Controller) DiagnoseScheduler(now float64, sched *cluster.Scheduler, interval float64) []*DiagnosisReport {
	var out []*DiagnosisReport
	app := sched.App().Name
	for _, r := range sched.Replicas() {
		grouped, _ := c.analyzer(r.Engine()).Snapshot(interval, false)
		current := grouped[app]
		out = append(out, c.Diagnose(now, app, r.Server(), current))
	}
	return out
}
