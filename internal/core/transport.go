package core

import (
	"pervasive/internal/checker"
	"pervasive/internal/network"
	"pervasive/internal/sim"
)

// Transport is the sending surface a sensor needs: direct sends to the
// checker and the protocol's strobe broadcast, each of one body the sender
// built with network.NewBody. Both the single-engine network.Net and a
// shard's network.ShardPart satisfy it, which is how one Sensor
// implementation runs unchanged on either kernel.
type Transport interface {
	SendBody(src, dst int, b *network.Body) uint64
	BroadcastBody(src int, b *network.Body) uint64
}

// Receiver is the receiving surface a fleet or a checker registers on: the
// node count and per-node delivery handlers. Both network.Net and
// network.ShardedNet satisfy it, which is how one set of Register methods
// and one NewSensors serve either kernel.
type Receiver interface {
	N() int
	Register(i int, h network.Handler)
}

var (
	_ Transport = (*network.Net)(nil)
	_ Transport = (*network.ShardPart)(nil)
	_ Receiver  = (*network.Net)(nil)
	_ Receiver  = (*network.ShardedNet)(nil)
)

// onStrobes installs fn on transport node idx as the consumer of every
// strobe delivered there; other payloads are ignored.
func onStrobes(net Receiver, idx int, fn func(m StrobeMsg, now sim.Time)) {
	net.Register(idx, func(m network.Message, now sim.Time) {
		if strobe, ok := m.Payload.(*StrobeMsg); ok {
			fn(*strobe, now)
		}
	})
}

// RegisterTree installs the checker tree t on transport node idx as the
// consumer of every strobe delivered there. A StrobeMsg converts to a
// checker.Report field for field: the tree sees the strobe without its
// transport envelope.
func RegisterTree(net Receiver, idx int, t *checker.Tree) {
	onStrobes(net, idx, func(m StrobeMsg, now sim.Time) { t.OnReport(checker.Report(m), now) })
}
