package main

// Example runs the program and pins each kernel's preferred tolerance on
// both machines.
func Example() {
	main()
	// Output:
	// mesh: 128710 elements on 48 ranks, machine Titan
	//   kernel            alpha   payload(B)  preferred tol     Tp (s)
	//   high-order           96          512           0.00   0.001964
	//   wave                 14          256           0.02  0.0007593
	//   laplacian             8          256           0.02  0.0007194
	//   multi-species         4         1024           0.10   0.002681
	//
	// mesh: 128710 elements on 48 ranks, machine Clemson-32
	//   kernel            alpha   payload(B)  preferred tol     Tp (s)
	//   high-order           96          512           0.10    0.02434
	//   wave                 14          256           0.10      0.012
	//   laplacian             8          256           0.10    0.01197
	//   multi-species         4         1024           0.10    0.04776
	//
	// the application's fingerprint (α, payload) moves the optimum tolerance;
	// the partitioner is application-aware, not only machine-aware.
}
