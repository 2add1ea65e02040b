// Package workload is the canonical registry of rebuildable problem
// domains: it maps an admm.ProblemRef (workload name + raw spec JSON)
// to a finalized factor graph, built through the same FromSpec
// constructors the serving layer admits requests with. Shard-worker
// processes (cmd/paradmm-shardworker) use it to reconstruct the
// coordinator's graph deterministically — proximal operators cannot
// cross a process boundary, so the spec travels instead, and the
// operators are rebuilt from the same seeded draw on both sides.
//
// Solve is the one path from an admitted Job to its Outcome that the
// serving layer, the bulk pipeline and paradmm-solve share.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/shard"
)

// Builders returns the registry for shard.ServeWorker: every workload
// name bound to Build, so a worker refuses exactly what admission
// refuses — a peer's Cfg cannot make it allocate past the size caps.
func Builders() map[string]shard.BuilderFunc {
	out := make(map[string]shard.BuilderFunc, len(parsers))
	for name := range parsers {
		out[name] = func(spec []byte) (*graph.Graph, error) { return Build(name, spec) }
	}
	return out
}

// Build constructs the factor graph one ProblemRef describes, through
// the same admission (strict decode, size caps) the serving layer uses.
// The graph comes back finalized with builder-default parameters; ADMM
// state is left for the coordinator's state push to overwrite.
func Build(name string, spec []byte) (*graph.Graph, error) {
	adm, err := Parse(name, spec)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	p, err := adm.Build()
	if err != nil {
		return nil, err
	}
	return p.FactorGraph(), nil
}

// Names lists the registered workloads, sorted.
func Names() []string {
	out := make([]string, 0, len(parsers))
	for n := range parsers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
