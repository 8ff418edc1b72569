package gen

import (
	"math/rand"

	"replicatree/internal/core"
)

// BenchSeed is the seed of the recorded solve benchmarks: the
// BenchmarkWarm*/BenchmarkDelta* shapes and cmd/benchrec.
const BenchSeed = 97

// BenchInstance builds the binary instance the solve benchmarks and
// the allocation gate measure: a random tree with the given number of
// internal nodes (150 gives a ~200-node tree), arity 2 so multiple-bin
// applies, edge lengths ≤ 4 and requests ≤ 10, with W raised to the
// largest rᵢ so the Multiple preconditions hold. withDistance picks a
// finite DMax; without it the instance is NoD.
//
// The construction is frozen: the BENCH_*.json trajectory compares
// runs on exactly these instances.
func BenchInstance(seed int64, internals int, withDistance bool) *core.Instance {
	rng := rand.New(rand.NewSource(seed))
	in := RandomInstance(rng, TreeConfig{
		Internals: internals, MaxArity: 2, MaxDist: 4, MaxReq: 10,
	}, withDistance)
	if in.W < in.Tree.MaxRequests() {
		in.W = in.Tree.MaxRequests()
	}
	return in
}
