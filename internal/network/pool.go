package network

import (
	"sync"

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
// and puts a body from its pool back there when the last copy lands
// (ShardPart). network.Net and the live engine are not recyclers: their
// senders allocate, and never pay a pool's Get on an empty pool, which
// scans every P.
type Recycler interface {
	Pool() *BodyPool
}

// GetBody returns a body from pool carrying a P, unstamped, for one send
// on the transport that owns the pool. The *P is the payload the body
// carried last — a zero P in a new body — so the sender may reuse what it
// points to (a stamp's backing array) and must overwrite the rest, Stamp
// included. A pooled body of another payload type is left to the
// collector.
func GetBody[P any, PP interface {
	*P
	Payload
}](pool *BodyPool) (*Body, PP) {
	if b, _ := pool.free.Get().(*Body); b != nil {
		if p, ok := b.Payload.(PP); ok {
			b.Stamp, b.state = flight.Stamp{}, pooledBit
			return b, p
		}
	}
	var zero P
	b := NewBody[P, PP](zero, flight.Stamp{})
	b.state = pooledBit
	return b, b.Payload.(PP)
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
