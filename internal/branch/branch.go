// Package branch provides the table-based branch-direction predictor the
// simulated frontend can use in place of the workloads' annotations. The
// paper's machine uses an LTAGE predictor; this package implements a
// TAGE-lite predictor of that family.
//
// The synthetic workload proxies (package trace) do not need it: each proxy
// encodes its application's published misprediction behaviour directly, as
// a per-branch annotation, which is what determines how control dependences
// delay the Visibility Point. With arch.Config.RealPredictor the pipeline
// builds a TAGE and mispredicts where it does instead.
package branch

// counter is a 2-bit saturating counter; values >= 2 predict taken.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) train(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
