package experiments

import (
	"sync"
	"testing"

	"outlierlb/internal/cluster"
	"outlierlb/internal/core"
	"outlierlb/internal/sim"
)

// TestCtrlDebugEndpointsRace hammers the controller's debug endpoints —
// Suspend, SetClockOffset, ClockOffset — from a second goroutine while
// a lossy-channel chaos run delivers control messages on the simulation
// goroutine. The tools expose these endpoints over HTTP, so they are
// the one place an operator thread writes controller state concurrently
// with in-flight message delivery; the test is meaningful under -race
// (ci.sh runs the whole suite with the detector on) and otherwise just
// checks the run survives the interference.
func TestCtrlDebugEndpointsRace(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("chaos scenario: skipped in -short")
	}
	var mu sync.Mutex
	var ctls []*core.Controller
	o := Options{OnTestbed: func(ctl *core.Controller, mgr *cluster.Manager, s *sim.Engine) {
		mu.Lock()
		ctls = append(ctls, ctl)
		mu.Unlock()
	}}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			live := append([]*core.Controller(nil), ctls...)
			mu.Unlock()
			for _, c := range live {
				// Toggle and restore so the scenario's behaviour is
				// perturbed only transiently; the assertion here is the
				// absence of data races, not the scorecard.
				c.Suspend(i%2 == 0)
				c.SetClockOffset(float64(i % 3))
				_ = c.ClockOffset()
				c.SetClockOffset(0)
				c.Suspend(false)
			}
		}
	}()

	_, err := o.ChaosCtrlLossy(1)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("lossy chaos run under debug-endpoint hammering: %v", err)
	}
}
