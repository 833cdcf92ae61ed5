package main

// Example runs the program and pins both CG solves and their time and
// energy comparison.
func Example() {
	main()
	// Output:
	// mesh: 106723 elements, 2:1 balanced, Hilbert-ordered
	// machine: Clemson-32 (32 nodes × 56 ranks, tc=2.00e-10 ts=3.00e-05 tw=4.50e-08)
	//
	//                            equal-work       OptiPart
	// CG iterations                     500            500
	// residual                    3.476e-06      3.557e-06
	// modeled time (s)                6.299          6.115
	// energy (J)                       1416           1379
	// Cmax                              841            824
	//
	// OptiPart vs equal-work: time -2.9%, energy -2.6%
}
