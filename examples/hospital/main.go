// Hospital (paper §5): RFID badges on visitors and patients. Two
// monitors run over the same machinery as the exhibition hall: a
// waiting-room overcrowding alarm, and a restricted-entry alarm on the
// infectious-diseases ward.
package main

import (
	"fmt"

	pervasive "pervasive"
)

func main() {
	fmt.Println("hospital monitors (strobe vector clocks, Δ = 100ms)")

	crowding := pervasive.NewHospital(pervasive.HospitalConfig{
		Run:             pervasive.ScenarioRun{Seed: 5, Horizon: 5 * pervasive.Minute},
		Alarm:           "crowding",
		WaitingDoors:    2,
		WaitingCapacity: 12,
		MeanArrival:     800 * pervasive.Millisecond,
		MeanStay:        20 * pervasive.Second,
	})
	res := crowding.Run()
	fmt.Printf("\nwaiting-room overcrowding (capacity 12):\n")
	fmt.Printf("  true episodes: %d, alarms raised: %d\n", len(res.Truth), crowding.Alarms)
	fmt.Printf("  score: %v\n", res.Confusion)

	ward := pervasive.NewHospital(pervasive.HospitalConfig{
		Run:           pervasive.ScenarioRun{Seed: 5, Horizon: 5 * pervasive.Minute},
		Alarm:         "ward",
		WardMeanVisit: 25 * pervasive.Second,
	})
	res = ward.Run()
	fmt.Printf("\ninfectious-ward restricted entry:\n")
	fmt.Printf("  true intrusions: %d, alarms raised: %d\n", len(res.Truth), ward.Alarms)
	fmt.Printf("  score: %v\n", res.Confusion)
	fmt.Printf("  recall %.3f — every intrusion episode is reported, not just the first\n",
		res.Confusion.Recall())
}
