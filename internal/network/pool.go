package network

import (
	"sync"
	"sync/atomic"

	"pervasive/internal/flight"
)

// BodyPool is the free list of a recycling transport's bodies. A body is
// dead once its last scheduled copy has landed — a strobe one delivery
// window after it was sent — so the transport puts it back here then,
// with its payload and whatever the payload points to, and the next
// sender's GetBody overwrites it. The pool is a sync.Pool: the sender of a
// body and the shards its copies land on take and return bodies from
// their own goroutines, and nothing is pinned past a collection.
type BodyPool struct {
	free sync.Pool // of *Body, each from GetBody

	// onPut, when set, sees each body as it goes back (a test seam).
	onPut func(*Body)
}

// Recycler is a transport that counts the copies of every body it sends
// and puts a body from its pool back there when the last copy lands: both
// DES transports, Net and ShardPart, with one count and one release path
// (see land). The live engine's links are not recyclers — a live copy
// lands on another goroutine's clock — so their senders allocate with
// NewBody.
type Recycler interface {
	Pool() *BodyPool
}

// GetBody returns a body from pool carrying a P, unstamped, for one send
// on the transport that owns the pool. The *P is the payload the body
// carried last — a zero P in a new body — so the sender may reuse what it
// points to (a stamp's backing array) and must overwrite the rest, Stamp
// included. A pooled body of another payload type is left to the
// collector. A nil pool — a sender that keeps what it sends, or a
// transport that does not recycle — gets a new body no pool takes back.
func GetBody[P any, PP interface {
	*P
	Payload
}](pool *BodyPool) (*Body, PP) {
	if pool == nil {
		var zero P
		b := NewBody[P, PP](zero, flight.Stamp{})
		return b, b.Payload.(PP)
	}
	if b, _ := pool.free.Get().(*Body); b != nil {
		if p, ok := b.Payload.(PP); ok {
			b.Stamp, b.state = flight.Stamp{}, pooledBit
			return b, p
		}
	}
	b, p := GetBody[P, PP](nil)
	b.state = pooledBit
	return b, p
}

// hold sets b's count of outstanding copies to the deliveries its send
// scheduled — a duplicate counts, a copy lost on the link does not — or,
// when there are none, releases b at once. A send sets the count once,
// after all its copies are scheduled: none can land before the sending
// event returns.
func (pool *BodyPool) hold(b *Body, scheduled uint32) {
	if scheduled == 0 {
		pool.release(b)
		return
	}
	b.state += scheduled
}

// checkCopyRoom panics unless a body sent among n processes fits its
// copy count: a broadcast schedules at most one copy and one duplicate per
// process.
func checkCopyRoom(n int, what string) {
	if n > copyMask/2 {
		panic("network: " + what + " past the per-body copy count")
	}
}

// land retires one scheduled copy of b and reports whether it was the
// last. The count is atomic: under Workers > 1 the copies of one body land
// on different shards in the same epoch.
func (b *Body) land() bool {
	return atomic.AddUint32(&b.state, ^uint32(0))&copyMask == 0
}

// release hands b back to pool if it came from one; the caller holds the
// last reference the transport had to it.
func (pool *BodyPool) release(b *Body) {
	if b.state&pooledBit == 0 {
		return
	}
	if pool.onPut != nil {
		pool.onPut(b)
	}
	pool.free.Put(b)
}
