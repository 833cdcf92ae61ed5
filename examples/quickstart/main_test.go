package main

// Example runs the program and pins the partition's quality table.
func Example() {
	main()
	// Output:
	// partitioned 320000 elements across 16 ranks on the Clemson-32 model
	//   modeled time:        0.01928 s
	//   refinement rounds:   5
	//   achieved tolerance:  0.020
	//   load imbalance λ:    1.040 (Wmax=20397, Wmin=19607)
	//   boundary octants:    Cmax=6219, total=80858
	//   predicted app step:  0.0719 s (Tp = α·tc·Wmax + tw·Cmax)
}
