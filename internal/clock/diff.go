package clock

// Differential strobe vectors adapt the Singhal–Kshemkalyani vector-clock
// compression technique to the strobe protocol: instead of broadcasting
// the whole O(n) vector at every relevant event, a process sends only the
// components that changed since its *previous* broadcast. Receivers merge
// the sparse entries exactly as SVC2 merges full vectors.
//
// The technique is exact under reliable FIFO dissemination: every receiver
// has already merged the unchanged components from earlier strobes, so the
// merged knowledge after each strobe is identical to the full-vector
// protocol (verified by the equivalence tests and the A4 ablation). Under
// message loss a receiver can lag by the lost components until the next
// strobe that touches them; the clock stays monotonic either way — the
// same graceful degradation as full strobes, with less to lose per packet.

// SparseEntry is one changed component of a differential strobe.
type SparseEntry struct {
	Proc int
	Val  uint64
}

// SparseStamp is the payload of a differential strobe: the components
// that changed since the sender's last strobe.
type SparseStamp []SparseEntry

// WireBytes returns the on-air size: (proc id + value) per entry.
func (s SparseStamp) WireBytes() int { return len(s) * (2 + 8) }

// MergeSparse applies SVC2 to a differential strobe: componentwise max
// over the carried entries, no local tick. Out-of-range entries are
// ignored. It is the sparse counterpart of MergeFrom: the checkers'
// per-sender reconstructions merge with it.
func (v Vector) MergeSparse(s SparseStamp) {
	for _, e := range s {
		if e.Proc >= 0 && e.Proc < len(v) && e.Val > v[e.Proc] {
			v[e.Proc] = e.Val
		}
	}
}
