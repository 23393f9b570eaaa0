package scenario

import (
	"testing"

	"pervasive/internal/core"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/world"
)

func worldKey(obj int, attr string) world.AttrKey {
	return world.AttrKey{Object: obj, Attr: attr}
}

func TestHallOccupancyConservation(t *testing.T) {
	hl := NewHall(HallConfig{
		Run:   Run{Seed: 1, Horizon: 2 * sim.Minute},
		Doors: 3, Capacity: 30, MeanArrival: 200 * sim.Millisecond,
		MeanStay: 10 * sim.Second,
	})
	hl.Run()
	// Ground truth sanity: Σx − Σy is the number of visitors inside; it
	// must never go negative.
	var x, y float64
	state := hl.Harness.World.StateAt(hl.Cfg.Horizon)
	for _, d := range hl.Objects {
		for k, v := range state {
			if k.Object == d && k.Attr == "x" {
				x += v
			}
			if k.Object == d && k.Attr == "y" {
				y += v
			}
		}
	}
	if x < y {
		t.Fatalf("more exits (%v) than entries (%v)", y, x)
	}
	if x == 0 {
		t.Fatal("no visitors arrived")
	}
}

func TestHallDetectsOvercrowding(t *testing.T) {
	// Start near capacity so crossings happen; fast arrivals.
	hl := NewHall(HallConfig{
		Run:   Run{Seed: 2, Delay: sim.NewDeltaBounded(50 * sim.Millisecond), Horizon: 3 * sim.Minute},
		Doors: 4, Capacity: 50, InitialOccupancy: 48,
		MeanArrival: 300 * sim.Millisecond, MeanStay: 20 * sim.Second,
	})
	res := hl.Run()
	if len(res.Truth) == 0 {
		t.Fatal("occupancy never crossed capacity — workload broken")
	}
	if r := res.Confusion.Recall(); r < 0.6 {
		t.Fatalf("recall %.2f: %+v", r, res.Confusion)
	}
}

func TestHallBorderlineCoversVectorErrors(t *testing.T) {
	// §5's claim: vector-strobe consensus places FPs and most FNs in the
	// borderline bin. Aggregate across seeds.
	var total, covered int64
	for seed := uint64(0); seed < 6; seed++ {
		hl := NewHall(HallConfig{
			Run:   Run{Seed: seed, Delay: sim.NewDeltaBounded(200 * sim.Millisecond), Horizon: 2 * sim.Minute},
			Doors: 4, Capacity: 40, InitialOccupancy: 38,
			MeanArrival: 150 * sim.Millisecond, MeanStay: 8 * sim.Second,
		})
		res := hl.Run()
		total += res.Confusion.FP + res.Confusion.FN
		covered += res.Confusion.BorderlineFP + res.Confusion.BorderlineFN
	}
	if total == 0 {
		t.Skip("no detection errors at this load; nothing to bin")
	}
	if float64(covered)/float64(total) < 0.5 {
		t.Fatalf("borderline bin covered only %d/%d errors", covered, total)
	}
}

func TestOfficeInstantaneousWithActuation(t *testing.T) {
	of := NewOffice(OfficeConfig{
		Seed: 3, Rooms: 1, Modality: predicate.Instantaneously,
		Actuate: true, Horizon: 4 * sim.Minute,
	})
	res := of.Run()
	if len(res.Truth) == 0 {
		t.Skip("rule never true under this seed")
	}
	if of.Actuations == 0 {
		t.Fatal("detections did not actuate the thermostat")
	}
	// Actuation drives temp back to 28: the world log must contain
	// actuator-induced temperature drops.
	drops := 0
	for _, ev := range of.Harness.World.Log() {
		if ev.Attr == "temp" && ev.New == 28 && ev.Old > 28 {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("no thermostat resets in world log")
	}
}

func TestOfficeDefinitely(t *testing.T) {
	of := NewOffice(OfficeConfig{
		Seed: 4, Rooms: 1, Modality: predicate.Definitely,
		Horizon: 4 * sim.Minute,
	})
	res := of.Run()
	if len(res.Truth) > 2 && res.Confusion.Recall() < 0.5 {
		t.Fatalf("Definitely recall %.2f with %d truths", res.Confusion.Recall(), len(res.Truth))
	}
}

func TestHospitalWardAlarm(t *testing.T) {
	hp := NewHospital(HospitalConfig{
		Run:   Run{Seed: 5, Horizon: 5 * sim.Minute},
		Alarm: "ward", WardMeanVisit: 20 * sim.Second,
	})
	res := hp.Run()
	if len(res.Truth) == 0 {
		t.Fatal("no ward intrusions generated")
	}
	if hp.Alarms == 0 {
		t.Fatal("no alarms raised")
	}
	if r := res.Confusion.Recall(); r < 0.8 {
		t.Fatalf("ward alarm recall %.2f", r)
	}
}

func TestHospitalCrowding(t *testing.T) {
	hp := NewHospital(HospitalConfig{
		Run:   Run{Seed: 6, Horizon: 4 * sim.Minute},
		Alarm: "crowding", WaitingCapacity: 10,
		MeanArrival: 500 * sim.Millisecond, MeanStay: 15 * sim.Second,
	})
	res := hp.Run()
	if len(res.Truth) == 0 {
		t.Skip("waiting room never overcrowded under this seed")
	}
	if res.Confusion.Recall() < 0.5 {
		t.Fatalf("crowding recall %.2f", res.Confusion.Recall())
	}
}

func TestHabitatHighAccuracyInFavourableRegime(t *testing.T) {
	// Event dwell times (minutes) ≫ Δ (2s): the strobe clock's favourable
	// regime; detection should be near-perfect even with big delays.
	hb := NewHabitat(HabitatConfig{Run: Run{Seed: 7, Horizon: 2 * sim.Hour}})
	res := hb.Run()
	if len(res.Truth) < 3 {
		t.Fatalf("thin workload: %d congregations", len(res.Truth))
	}
	if r := res.Confusion.Recall(); r < 0.9 {
		t.Fatalf("recall %.2f in the favourable regime: %+v", r, res.Confusion)
	}
	unflaggedFP := res.Confusion.FP - res.Confusion.BorderlineFP
	if unflaggedFP > 0 {
		t.Fatalf("vector detector produced %d unflagged FPs", unflaggedFP)
	}
}

func TestScenarioDefaultsFill(t *testing.T) {
	// All builders must work with zero configs.
	NewHall(HallConfig{Run: Run{Horizon: sim.Second}}).Run()
	NewOffice(OfficeConfig{Horizon: sim.Second}).Run()
	NewHospital(HospitalConfig{Run: Run{Horizon: sim.Second}}).Run()
	NewHabitat(HabitatConfig{Run: Run{Horizon: sim.Second}}).Run()
}

func TestHospitalUnknownAlarmPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHospital(HospitalConfig{Alarm: "bogus"})
}

func TestHallScalarVsVectorSameWorkload(t *testing.T) {
	// The workload (world plane) must be identical across clock kinds for
	// a given seed — different detector, same truth.
	a := NewHall(HallConfig{
		Run:   Run{Seed: 9, Horizon: sim.Minute, Kind: core.VectorStrobe},
		Doors: 3, Capacity: 20, InitialOccupancy: 18,
	}).Run()
	b := NewHall(HallConfig{
		Run:   Run{Seed: 9, Horizon: sim.Minute, Kind: core.ScalarStrobe},
		Doors: 3, Capacity: 20, InitialOccupancy: 18,
	}).Run()
	if len(a.Truth) != len(b.Truth) {
		t.Fatalf("truth differs across kinds: %d vs %d", len(a.Truth), len(b.Truth))
	}
}

func TestProximityAlarm(t *testing.T) {
	p := NewProximity(ProximityConfig{Run: Run{Seed: 12, Horizon: 20 * sim.Minute}})
	res := p.Run()
	if len(res.Truth) == 0 {
		t.Fatal("visitor never approached the patient in 20 minutes of wandering")
	}
	if p.Alarms == 0 {
		t.Fatal("no proximity alarms raised")
	}
	if r := res.Confusion.Recall(); r < 0.7 {
		t.Fatalf("proximity recall %.2f: %+v", r, res.Confusion)
	}
}

func TestProximityGroundTruthMatchesGeometry(t *testing.T) {
	// The oracle's truth intervals must agree with direct geometric
	// distance checks at sampled instants.
	p := NewProximity(ProximityConfig{Run: Run{Seed: 13, Horizon: 5 * sim.Minute}})
	res := p.Run()
	w := p.Harness.World
	for _, iv := range res.Truth {
		mid := iv.Start + (iv.End-iv.Start)/2
		st := w.StateAt(mid)
		visitor, patient := p.Objects[0], p.Objects[1]
		dx := st[worldKey(visitor, "x")] - st[worldKey(patient, "x")]
		dy := st[worldKey(visitor, "y")] - st[worldKey(patient, "y")]
		if dx*dx+dy*dy >= p.Cfg.Radius*p.Cfg.Radius {
			t.Fatalf("truth interval midpoint %v outside radius: d²=%.2f", mid, dx*dx+dy*dy)
		}
	}
}
