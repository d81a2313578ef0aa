package main

// shape fixes one L-CoFL configuration: the fleet, its data and the
// coding parameters. Both engines (the in-process fl.System and the
// distributed node session) can run any shape.
type shape struct {
	Vehicles    int     // V
	Rows        int     // synthetic traffic rows (80% train, partitioned IID)
	RefRows     int     // fusion-centre reference rows (S = RefRows/Batches)
	Batches     int     // M
	Degree      int     // activation degree d; K = d·(M−1)+1
	LocalEpochs int     // local SGD epochs per round
	Malicious   float64 // fraction of ConstantLie{5} liars
}

// workload is one benchmark input set.
type workload struct {
	Name  string
	Why   string
	Shape shape
	// Workers is the engine's worker count for the timed runs and the
	// traced pipe sessions. The timed runs are on one P by the CPU clock
	// (see timeInproc), so both workloads run at 1.
	Workers int
	// Rounds per session. Every session of a run repeats the same seed,
	// so its rounds do the same work each time.
	Rounds int
}

var workloads = []workload{
	{
		Name: "paper-fleet",
		Why:  "the path every figure runs: V=100, M=16, d=1, 5 local epochs, 20% liars, perfect channel; local nn training dominates",
		Shape: shape{Vehicles: 100, Rows: 2500, RefRows: 128, Batches: 16, Degree: 1,
			LocalEpochs: 5, Malicious: 0.2},
		Workers: 1,
		Rounds:  100,
	},
	{
		Name: "wide-verify",
		Why:  "coded path at its error budget: d=3 (K=46, E=27), 1024 reference rows, 1 local epoch, 25 liars; Lagrange, field and RS decode dominate",
		Shape: shape{Vehicles: 100, Rows: 2500, RefRows: 1024, Batches: 16, Degree: 3,
			LocalEpochs: 1, Malicious: 0.25},
		Workers: 1,
		Rounds:  100,
	},
}

// findWorkload returns the workload with the given name.
func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
