package main

// Example runs the program and pins the four machines' partitions.
func Example() {
	main()
	// Output:
	// one mesh (129522 elements), four machines, OptiPart on 48 ranks
	//
	// machine       tw/tc ratio   achieved        λ     Cmax  predicted (s)
	// Titan                   8      0.013    1.032     1074      0.0007401
	// Stampede               10      0.013    1.032     1074      0.0006746
	// Clemson-32            225      0.270    2.010     1112        0.01286
	// Wisconsin-8           144      0.270    2.010     1112       0.007444
	//
	// communication-bound machines tolerate more imbalance for smaller boundaries;
	// the partition is a function of the machine, not just the mesh.
}
