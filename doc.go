// Package pervasive is a library for building and studying execution and
// time models for pervasive sensor-actuator networks, reproducing
// Kshemkalyani, Khokhar and Shen, "Execution and Time Models for Pervasive
// Sensor Networks" (IPDPS workshops 2011; IJNC 2(1):2–17, 2012).
//
// # The model
//
// A pervasive system is a quadruple ⟨P, L, O, C⟩: sensor/actuator
// processes P communicating over a logical overlay L (the network plane),
// observing passive world objects O that influence each other over covert
// channels C (the world plane). The library simulates both planes — on a
// deterministic discrete-event kernel for experiments (one harness, on one
// engine or, for a large fleet, on lockstep shards), or on a live
// goroutine/channel engine — and implements the paper's full design space
// of time models:
//
//   - logical strobe clocks, scalar and vector (the paper's contribution),
//     simulating the single time axis without physical synchronization;
//   - Lamport and Mattern/Fidge causal clocks;
//   - drifting and ε-synchronized physical clocks, plus simulated
//     synchronization protocols (RBS, TPSN, on-demand);
//   - predicate detection under the Instantaneously, Possibly and
//     Definitely modalities, for conjunctive and relational predicates,
//     reporting every occurrence and classifying race-affected detections
//     into the borderline bin;
//   - global-state lattice analysis (the slim lattice postulate).
//
// # Quick start
//
//	pred := pervasive.MustParsePredicate("sum(x) - sum(y) > 200")
//	h := pervasive.NewHarness(pervasive.HarnessConfig{
//		N: 4, Kind: pervasive.VectorStrobe,
//		Delay: pervasive.DeltaBounded(100 * pervasive.Millisecond),
//		Pred: pred, Modality: pervasive.Instantaneously,
//		Horizon: pervasive.Minute,
//	})
//	// create world objects, h.Bind sensors, h.Install(workload sources) ...
//	res := h.Run()
//	fmt.Println(res.Confusion)
//
// Ready-made scenarios from the paper's Section 5 are available via
// NewExhibitionHall, NewSmartOffice, NewHospital and NewHabitat. The experiment suite that regenerates every quantitative
// claim of the paper is exposed through Experiments and RunExperiment
// (EXPERIMENTS.md).
package pervasive
