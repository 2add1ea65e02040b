package shard

import (
	"cmp"
	"context"

	"repro/internal/admm"
	"repro/internal/graph"
)

// The sharded executor registers itself with the admm spec registry;
// importing this package links it in. One factory serves every
// transport: the in-process Backend over shared-memory barriers
// (default) or loopback message streams (transport "sockets" with no
// addrs), and the cross-process Remote coordinator (transport "sockets"
// with one worker endpoint per shard).
func init() {
	admm.RegisterExecutor(admm.ExecSharded, func(s admm.ExecutorSpec, g *graph.Graph) (admm.Backend, error) {
		if s.Transport == admm.TransportSockets && len(s.Addrs) > 0 {
			return NewRemote(context.Background(), s, g)
		}
		sb, err := New(cmp.Or(s.Shards, 4))
		if err != nil {
			return nil, err
		}
		sb.Transport = s.Transport
		return sb, nil
	})
}

// StatsReporter is implemented by both sharded backends (the in-process
// Backend and the cross-process Remote coordinator); the serving layer
// and CLIs use it to surface partition and exchange statistics without
// caring which transport carried the solve.
type StatsReporter interface {
	Stats() Stats
}

var (
	_ StatsReporter = (*Backend)(nil)
	_ StatsReporter = (*Remote)(nil)
)
