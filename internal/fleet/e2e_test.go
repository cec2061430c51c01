package fleet_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"net/url"
	"testing"

	"pinnedloads/internal/experiments"
	"pinnedloads/internal/fleet"
	"pinnedloads/internal/service"
)

// Fleet must plug into the experiment runner's remote hook.
var _ experiments.RemoteRunner = (*fleet.Fleet)(nil)

// e2eParams sizes the sweep: the full -quick sizing normally, a shorter
// one under the race detector (same sweep, ~10x slower per instruction).
func e2eParams() experiments.Params {
	p := experiments.QuickParams()
	if raceEnabled {
		p.Warmup, p.Measure = 200, 1_000
	}
	return p
}

// TestFleetFigure7SurvivesBackendKill is the acceptance test for the
// federation layer: three real in-process plserved backends serve the
// full -quick Figure 7 (SPEC17) sweep while a chaos schedule kills one
// of them mid-sweep. The sweep must complete via failover, and the
// rendered CSV must be byte-identical to an in-process (no-server) run —
// at-least-once dispatch, exactly-once results.
func TestFleetFigure7SurvivesBackendKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-backend sweep is not -short material")
	}
	params := e2eParams()

	var addrs []string
	var hosts []string
	for i := 0; i < 3; i++ {
		s := service.New(service.Options{Workers: 1})
		s.Start()
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			s.Close()
		}()
		u, err := url.Parse(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, ts.URL)
		hosts = append(hosts, u.Host)
	}

	// Kill the third backend once it has seen 40 requests — well into the
	// sweep (each backend owns ~1/3 of the keys and every job costs at
	// least a submit plus a poll), well before the end.
	chaos := fleet.NewChaosTransport(fleet.ChaosOptions{
		Seed:      7,
		KillAfter: map[string]int{hosts[2]: 40},
	})
	f, err := fleet.New(fleet.Options{Backends: addrs, Transport: chaos})
	if err != nil {
		t.Fatal(err)
	}

	remote := experiments.NewRunner(params)
	remote.Workers = 8 // callers mostly wait on the fleet; overlap them
	remote.Remote = f
	fig, err := experiments.RunCPIFigure(remote, "Figure 7 (SPEC17)", "SPEC17")
	if err != nil {
		t.Fatalf("federated sweep failed: %v", err)
	}
	gotCSV, err := experiments.MarshalCSV(fig)
	if err != nil {
		t.Fatal(err)
	}

	// The chaos schedule must actually have fired, and the fleet must have
	// routed around it.
	if chaos.Faults()["killed"] == 0 {
		t.Fatal("kill schedule never fired; the sweep did not exercise failover")
	}
	m, err := f.Metrics(context.Background())
	if err != nil {
		t.Logf("metrics fetch partially failed (expected, one backend is dead): %v", err)
	}
	if m.Fleet["fleet.failovers"] == 0 {
		t.Fatal("no failovers recorded despite a mid-sweep kill")
	}
	if remote.RemoteRuns() == 0 || remote.Simulations() != 0 {
		t.Fatalf("sweep was not fully federated: %d remote, %d local",
			remote.RemoteRuns(), remote.Simulations())
	}

	// Fleet-aggregated counters must be exactly the per-backend sums, even
	// under chaos.
	for name, v := range m.Aggregate {
		var sum uint64
		for _, bm := range m.PerBackend {
			sum += bm[name]
		}
		if v != sum {
			t.Errorf("aggregate %s = %d, want per-backend sum %d", name, v, sum)
		}
	}

	// The ground truth: the same sweep computed in-process.
	local := experiments.NewRunner(params)
	fig2, err := experiments.RunCPIFigure(local, "Figure 7 (SPEC17)", "SPEC17")
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := experiments.MarshalCSV(fig2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Fatalf("federated CSV differs from in-process CSV\nfederated:\n%s\nin-process:\n%s",
			gotCSV, wantCSV)
	}
}
