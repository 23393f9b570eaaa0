package stats

import "fmt"

// Confusion is a binary-detection confusion matrix extended with the
// paper's "borderline bin" (Section 5): detections that a consensus over
// vector strobes can identify as race-affected. Borderline entries are
// tracked separately so the application can choose to treat them as
// positives or negatives; BorderlineFP/BorderlineFN record how many of the
// false detections landed in the bin.
type Confusion struct {
	TP, FP, FN, TN int64
	BorderlineFP   int64
	BorderlineFN   int64
}

// Add merges other into c.
func (c *Confusion) Add(other Confusion) {
	c.TP += other.TP
	c.FP += other.FP
	c.FN += other.FN
	c.TN += other.TN
	c.BorderlineFP += other.BorderlineFP
	c.BorderlineFN += other.BorderlineFN
}

// Precision returns TP / (TP + FP), or 1 when no positives were reported.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP / (TP + FN), or 1 when there were no real positives.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// Accuracy returns (TP+TN) / total, or 1 when the matrix is empty.
func (c Confusion) Accuracy() float64 {
	total := c.TP + c.FP + c.FN + c.TN
	if total == 0 {
		return 1
	}
	return float64(c.TP+c.TN) / float64(total)
}

// BorderlineCoverage returns the fraction of erroneous detections (FP+FN)
// that the detector managed to flag as borderline, or 1 when there were no
// errors. The paper claims vector-strobe consensus places all FPs and most
// FNs in the borderline bin.
func (c Confusion) BorderlineCoverage() float64 {
	errs := c.FP + c.FN
	if errs == 0 {
		return 1
	}
	return float64(c.BorderlineFP+c.BorderlineFN) / float64(errs)
}

// String renders a compact single-line summary.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d FN=%d TN=%d prec=%.3f rec=%.3f border=%d/%d",
		c.TP, c.FP, c.FN, c.TN, c.Precision(), c.Recall(),
		c.BorderlineFP+c.BorderlineFN, c.FP+c.FN)
}
