package graph

import (
	"math/rand"
	"testing"
)

// FuzzPartitionInvariants drives NewPartition over randomized graph
// shapes and shard counts, checking the balanced split's
// invariants via Partition.Validate (every function on
// exactly one in-range shard, boundary set identical to a brute-force
// recomputation, owners hold at least one edge) — and that no shape
// panics, including degenerate single-function and parts>|F| cases.
// hub extra functions hang off variable 0, every other one with a
// private variable as well, so consensus stars far wider than the
// random part are covered; no shard may be left empty.
// The shared-memory owner rule (GatherOwners) is derived for every
// shape: it must be deterministic, leave interior variables with their
// only shard, and give each boundary variable to a shard that holds
// one of its edges.
// Every shape is then pushed through the FM refinement pass, which
// must keep the partition valid and never increase the weighted cut.
//
// Run as a regression suite by plain `go test` over the seed corpus;
// run `go test -fuzz=FuzzPartitionInvariants ./internal/graph` to
// explore.
func FuzzPartitionInvariants(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(5), uint8(2), uint16(0))
	f.Add(int64(2), uint8(1), uint8(1), uint8(4), uint16(0))
	f.Add(int64(3), uint8(50), uint8(9), uint8(3), uint16(0))
	f.Add(int64(4), uint8(200), uint8(40), uint8(8), uint16(0))
	f.Add(int64(5), uint8(7), uint8(3), uint8(255), uint16(0))
	f.Add(int64(6), uint8(20), uint8(6), uint8(4), uint16(1000))
	f.Fuzz(func(t *testing.T, seed int64, nFuncs, nVars, parts uint8, hub uint16) {
		if nFuncs == 0 || nVars == 0 || parts == 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		g := New(1 + int(nFuncs)%3)
		for a := 0; a < int(nFuncs); a++ {
			deg := 1 + rng.Intn(3)
			if deg > int(nVars) {
				deg = int(nVars)
			}
			seen := map[int]bool{}
			vars := []int{}
			for len(vars) < deg {
				v := rng.Intn(int(nVars))
				if !seen[v] {
					seen[v] = true
					vars = append(vars, v)
				}
			}
			g.AddNode(partIdentityOp{}, vars...)
		}
		for i := 0; i < int(hub); i++ {
			if i%2 == 0 {
				g.AddNode(partIdentityOp{}, 0)
			} else {
				g.AddNode(partIdentityOp{}, 0, int(nVars)+i/2)
			}
		}
		if err := g.Finalize(); err != nil {
			// Random shapes can reference variable i without i-1 ever
			// getting an edge; that is a legitimate builder error, not a
			// partitioner bug.
			t.Skip()
		}
		p, err := NewPartition(g, int(parts), StrategyBalanced)
		if err != nil {
			t.Fatalf("NewPartition(%d funcs, %d parts): %v", g.NumFunctions(), parts, err)
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("invalid partition (%d funcs, %d parts): %v", g.NumFunctions(), parts, err)
		}
		// Parts must never exceed the function count (empty-shard guard
		// for the executor), and with one part nothing is boundary.
		if p.Parts > g.NumFunctions() {
			t.Fatalf("parts %d > functions %d", p.Parts, g.NumFunctions())
		}
		if p.Parts == 1 && (len(p.BoundaryVars) != 0 || p.BoundaryEdges != 0) {
			t.Fatalf("single part has boundary: %+v", p)
		}
		for shard, load := range p.PartLoads(g) {
			if load == 0 {
				t.Fatalf("balanced left shard %d of %d empty (%d funcs)", shard, p.Parts, g.NumFunctions())
			}
		}
		owner, again := p.GatherOwners(g), p.GatherOwners(g)
		for v, o := range owner {
			if o != again[v] {
				t.Fatalf("gather owner of variable %d is shard %d, then %d", v, o, again[v])
			}
			if !p.IsBoundary(v) {
				if o != p.VarPart[v] {
					t.Fatalf("interior variable %d moved from shard %d to %d", v, p.VarPart[v], o)
				}
				continue
			}
			holds := false
			for _, e := range g.VarEdges(v) {
				holds = holds || p.FuncPart[g.EdgeFunc(e)] == o
			}
			if !holds {
				t.Fatalf("boundary variable %d combined by shard %d, which holds none of its edges (%d parts)", v, o, p.Parts)
			}
		}
		// Drive the FM pass over every fuzzed shape: the cut must never
		// increase and the partition must stay valid.
		before := CutCost(g, &p)
		rst := p.Refine(g)
		if rst.CostBefore != before || rst.CostAfter > before {
			t.Fatalf("refine (%d funcs, %d parts): cost %g -> %+v", g.NumFunctions(), parts, before, rst)
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("refined partition invalid (%d funcs, %d parts): %v", g.NumFunctions(), parts, err)
		}
	})
}
