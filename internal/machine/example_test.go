package machine_test

import (
	"fmt"

	"optipart/internal/machine"
)

// ExampleMachine_Predict evaluates Eq. (3) of the paper for a candidate
// partition: the model that decides when OptiPart stops refining.
func ExampleMachine_Predict() {
	m := machine.Clemson32()
	balanced := m.Predict(machine.DefaultAlpha, 1000, 300)
	flexible := m.Predict(machine.DefaultAlpha, 1200, 200)
	fmt.Println("flexible partition predicted faster:", flexible < balanced)
	// Output:
	// flexible partition predicted faster: true
}
