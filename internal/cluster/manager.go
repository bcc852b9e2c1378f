package cluster

import (
	"fmt"
	"sort"

	"outlierlb/internal/bufferpool"
	"outlierlb/internal/engine"
	"outlierlb/internal/obs"
	"outlierlb/internal/server"
)

// Manager is the resource manager of §3.1: it owns the physical server
// pool and makes global replica-allocation decisions across applications.
type Manager struct {
	servers    []*server.Server
	engines    map[*server.Server][]*engine.Engine
	schedulers map[string]*Scheduler
	// PoolConfig is the buffer-pool configuration given to engines the
	// manager provisions. Capacity defaults to the hosting server's
	// memory when zero.
	PoolConfig bufferpool.Config
	// Observer, when non-nil, receives engine-lifecycle events
	// (provisioned/decommissioned/attached).
	Observer obs.Observer
	// Clock supplies the virtual time stamped onto lifecycle events; the
	// manager itself has no simulation reference. Nil means time 0.
	Clock func() float64
	// Tracer, when non-nil, is handed to every scheduler registered and
	// engine provisioned afterwards so their query/exec spans land in one
	// shared trace ring. Set it before Register/Provision calls.
	Tracer     *obs.Tracer
	nextEngine int
}

// NewManager returns a manager with an empty server pool.
func NewManager() *Manager {
	return &Manager{
		engines:    make(map[*server.Server][]*engine.Engine),
		schedulers: make(map[string]*Scheduler),
	}
}

// emit sends a lifecycle event to the attached observer, if any.
func (m *Manager) emit(kind obs.EventKind, app, srv, cause string) {
	if m.Observer == nil {
		return
	}
	now := 0.0
	if m.Clock != nil {
		now = m.Clock()
	}
	m.Observer.Event(obs.Event{Time: now, Kind: kind, App: app, Server: srv, Cause: cause})
}

// AddServer adds a physical server to the pool.
func (m *Manager) AddServer(s *server.Server) {
	m.servers = append(m.servers, s)
}

// Servers returns the pool in insertion order.
func (m *Manager) Servers() []*server.Server { return m.servers }

// Register attaches an application's scheduler to the manager.
func (m *Manager) Register(s *Scheduler) error {
	name := s.App().Name
	if _, dup := m.schedulers[name]; dup {
		return fmt.Errorf("cluster: application %q already registered", name)
	}
	m.schedulers[name] = s
	if m.Tracer != nil {
		s.SetTracer(m.Tracer)
	}
	return nil
}

// Scheduler returns the scheduler for app, if registered.
func (m *Manager) Scheduler(app string) (*Scheduler, bool) {
	s, ok := m.schedulers[app]
	return s, ok
}

// FreeServer returns a server hosting no engines, or nil if the pool is
// exhausted — the provisioning reserve the §3.3.3 CPU reaction draws on.
func (m *Manager) FreeServer() *server.Server {
	for _, s := range m.servers {
		if len(m.engines[s]) == 0 {
			return s
		}
	}
	return nil
}

// UsedServers reports how many servers host at least one engine.
func (m *Manager) UsedServers() int {
	n := 0
	for _, s := range m.servers {
		if len(m.engines[s]) > 0 {
			n++
		}
	}
	return n
}

// Provision creates a database engine on srv, wraps it in a replica, and
// attaches it to app's scheduler (registering all of the app's query
// classes). It returns the new replica.
func (m *Manager) Provision(app string, srv *server.Server) (*Replica, error) {
	sched, ok := m.schedulers[app]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown application %q", app)
	}
	found := false
	for _, s := range m.servers {
		if s == srv {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: server %q not in the pool", srv.Name())
	}
	cfg := engine.Config{
		Name: fmt.Sprintf("engine-%d", m.nextEngine),
		Pool: m.PoolConfig,
	}
	m.nextEngine++
	if cfg.Pool.Capacity == 0 {
		cfg.Pool.Capacity = srv.MemoryPages()
	}
	eng, err := engine.New(cfg, srv)
	if err != nil {
		return nil, err
	}
	if m.Tracer != nil {
		eng.SetTracer(m.Tracer)
	}
	rep := NewReplica(eng, srv)
	if err := sched.AddReplica(rep); err != nil {
		return nil, err
	}
	m.engines[srv] = append(m.engines[srv], eng)
	m.emit(obs.EventEngineUp, app, srv.Name(),
		fmt.Sprintf("%s provisioned (%d-page pool)", eng.Name(), cfg.Pool.Capacity))
	return rep, nil
}

// ProvisionOnFreeServer provisions a replica for app on the first free
// server, or reports that the pool is exhausted.
func (m *Manager) ProvisionOnFreeServer(app string) (*Replica, error) {
	srv := m.FreeServer()
	if srv == nil {
		return nil, fmt.Errorf("cluster: no free servers for %q", app)
	}
	return m.Provision(app, srv)
}

// Decommission detaches rep from app's scheduler and returns its engine's
// resources to the pool — the scale-down half of dynamic replica
// allocation. It refuses to remove a replica whose engine also serves
// other applications.
func (m *Manager) Decommission(app string, rep *Replica) error {
	sched, ok := m.schedulers[app]
	if !ok {
		return fmt.Errorf("cluster: unknown application %q", app)
	}
	eng := rep.Engine()
	for _, id := range eng.Classes() {
		if id.App != app {
			return fmt.Errorf("cluster: engine %q also serves %q; cannot decommission", eng.Name(), id.App)
		}
	}
	if err := sched.RemoveReplica(rep); err != nil {
		return err
	}
	srv := rep.Server()
	engines := m.engines[srv]
	for i, e := range engines {
		if e == eng {
			m.engines[srv] = append(engines[:i], engines[i+1:]...)
			break
		}
	}
	m.emit(obs.EventEngineDown, app, srv.Name(), eng.Name()+" decommissioned")
	return nil
}

// Attach lets a scheduler share an existing replica's engine — the
// "multiple applications within a single database engine" configuration
// of the paper's §5.4 experiment.
func (m *Manager) Attach(app string, rep *Replica) error {
	sched, ok := m.schedulers[app]
	if !ok {
		return fmt.Errorf("cluster: unknown application %q", app)
	}
	if err := sched.AddReplica(rep); err != nil {
		return err
	}
	m.emit(obs.EventAttach, app, rep.Server().Name(),
		"shares "+rep.Engine().Name()+" with its existing tenants")
	return nil
}

// Schedulers returns all registered schedulers sorted by application name.
func (m *Manager) Schedulers() []*Scheduler {
	names := make([]string, 0, len(m.schedulers))
	for n := range m.schedulers {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Scheduler, 0, len(names))
	for _, n := range names {
		out = append(out, m.schedulers[n])
	}
	return out
}

// EnginesOn returns the engines hosted on srv.
func (m *Manager) EnginesOn(srv *server.Server) []*engine.Engine {
	return m.engines[srv]
}

// Allocation summarizes server usage as "server: engine,engine" lines for
// reports, sorted by server name.
func (m *Manager) Allocation() []string {
	names := make([]string, 0, len(m.servers))
	byName := make(map[string]*server.Server, len(m.servers))
	for _, s := range m.servers {
		names = append(names, s.Name())
		byName[s.Name()] = s
	}
	sort.Strings(names)
	out := make([]string, 0, len(names))
	for _, n := range names {
		line := n + ":"
		for _, e := range m.engines[byName[n]] {
			line += " " + e.Name()
		}
		out = append(out, line)
	}
	return out
}
