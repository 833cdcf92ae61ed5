package machine

import "testing"

func TestByName(t *testing.T) {
	for _, m := range All() {
		got, err := ByName(m.Name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", m.Name, err)
		}
		if got.Name != m.Name {
			t.Fatalf("ByName(%q) returned %q", m.Name, got.Name)
		}
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Fatal("ByName of unknown machine did not error")
	}
	for _, name := range []string{"titan", "CLEMSON-32", "wisconsin-8"} {
		if _, err := ByName(name); err != nil {
			t.Fatalf("ByName(%q): %v, want a case-insensitive match", name, err)
		}
	}
}

// Cores returns the total rank count of the machine. Only the tests that pin
// the paper's task counts observe it.
func (m Machine) Cores() int { return m.CoresPerNode * m.Nodes }

func TestParametersSane(t *testing.T) {
	for _, m := range All() {
		if m.Tc <= 0 || m.Ts <= 0 || m.Tw <= 0 {
			t.Fatalf("%s: non-positive cost parameters", m.Name)
		}
		if m.Tw < m.Tc {
			t.Fatalf("%s: network (tw=%g) must be slower than memory (tc=%g)", m.Name, m.Tw, m.Tc)
		}
		if m.Cores() != m.Nodes*m.CoresPerNode {
			t.Fatalf("%s: inconsistent core count", m.Name)
		}
		if m.IdleWatts <= 0 || m.DynWatts <= 0 {
			t.Fatalf("%s: power model not set", m.Name)
		}
	}
}

func TestTitanScale(t *testing.T) {
	// The paper's largest runs use 262,144 of Titan's 299,008 cores.
	if got := Titan().Cores(); got != 299008 {
		t.Fatalf("Titan cores = %d, want 299008", got)
	}
	if got := Clemson32().Cores(); got != 1792 {
		t.Fatalf("Clemson-32 cores = %d, want 1792 (the paper's MPI task count)", got)
	}
	if got := Wisconsin8().Cores(); got != 256 {
		t.Fatalf("Wisconsin-8 cores = %d, want 256", got)
	}
}

func TestPredictMonotonic(t *testing.T) {
	m := Wisconsin8()
	base := m.Predict(DefaultAlpha, 1000, 100)
	if m.Predict(DefaultAlpha, 2000, 100) <= base {
		t.Fatal("Predict not increasing in Wmax")
	}
	if m.Predict(DefaultAlpha, 1000, 200) <= base {
		t.Fatal("Predict not increasing in Cmax")
	}
	if m.Predict(2*DefaultAlpha, 1000, 100) <= base {
		t.Fatal("Predict not increasing in alpha")
	}
}

func TestCloudLabCommunicationExpensive(t *testing.T) {
	// On the 10 GbE CloudLab clusters trading work for communication pays
	// off much sooner than on Titan: tw/tc must be much larger there.
	titan := Titan()
	clemson := Clemson32()
	if clemson.Tw/clemson.Tc <= titan.Tw/titan.Tc {
		t.Fatal("Clemson must be relatively more communication-bound than Titan")
	}
}

func TestCostModelRoundTrip(t *testing.T) {
	m := Stampede()
	cm := m.CostModel()
	if cm.Tc != m.Tc || cm.Ts != m.Ts || cm.Tw != m.Tw {
		t.Fatal("CostModel dropped parameters")
	}
}

func TestMigrationCost(t *testing.T) {
	m := Clemson32()
	if got := m.MigrationCost(0); got != 0 {
		t.Fatalf("MigrationCost(0) = %g, want 0", got)
	}
	if got, want := m.MigrationCost(1<<20), m.Tw*float64(1<<20); got != want {
		t.Fatalf("MigrationCost(1MiB) = %g, want bytes*tw = %g", got, want)
	}
	// Movement is charged in the same currency as ghost exchange: moving one
	// payload's worth of bytes costs exactly one communicated element.
	ghost := m.PredictKernel(DefaultAlpha, GhostPayloadBytes, 0, 1)
	if got := m.MigrationCost(GhostPayloadBytes); got != ghost {
		t.Fatalf("MigrationCost(payload) = %g, want tw*payload = %g", got, ghost)
	}
}

func TestPredictRepartition(t *testing.T) {
	m := Wisconsin8()
	// Zero movement collapses to horizon repeats of the kernel model.
	kernel := m.PredictKernel(DefaultAlpha, GhostPayloadBytes, 1000, 100)
	if got, want := m.PredictRepartition(DefaultAlpha, GhostPayloadBytes, 1000, 100, 0, 5), 5*kernel; got != want {
		t.Fatalf("PredictRepartition with no movement = %g, want 5*kernel = %g", got, want)
	}
	// horizon <= 0 means DefaultHorizon.
	if got, want := m.PredictRepartition(DefaultAlpha, GhostPayloadBytes, 1000, 100, 0, 0),
		DefaultHorizon*kernel; got != want {
		t.Fatalf("PredictRepartition at horizon 0 = %g, want DefaultHorizon*kernel = %g", got, want)
	}
	// The knob works: over a short horizon a cheap-to-install placement with
	// worse Tp beats an expensive move to the optimum; over a long horizon
	// the ranking flips.
	const moved = 64 << 20
	stay := func(h float64) float64 {
		return m.PredictRepartition(DefaultAlpha, GhostPayloadBytes, 1200, 120, 0, h)
	}
	move := func(h float64) float64 {
		return m.PredictRepartition(DefaultAlpha, GhostPayloadBytes, 1000, 100, moved, h)
	}
	if stay(1) >= move(1) {
		t.Fatalf("short horizon should prefer staying put: stay=%g move=%g", stay(1), move(1))
	}
	if stay(1e6) <= move(1e6) {
		t.Fatalf("long horizon should prefer the better Tp: stay=%g move=%g", stay(1e6), move(1e6))
	}
}
