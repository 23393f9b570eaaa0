package core

import (
	"pervasive/internal/flight"
	"pervasive/internal/network"
)

// Transport is the sending surface a sensor needs: direct sends to the
// checker and the protocol's strobe broadcast. Both the single-engine
// network.Net and a shard's network.ShardPart satisfy it, which is how one
// Sensor implementation runs unchanged on either kernel.
type Transport interface {
	Send(src, dst int, p network.Payload) uint64
	SendStamped(src, dst int, p network.Payload, st flight.Stamp) uint64
	BroadcastStamped(src int, p network.Payload, st flight.Stamp) uint64
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
