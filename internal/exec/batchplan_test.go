package exec

import (
	"fmt"
	"testing"

	"lamb/internal/blas"
	"lamb/internal/expr"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// TestBatchPlanMatchesSequential pins the fused ≡ sequential invariant
// for the homogeneous chunks the engine sends the fused path: a batch
// plan of one bound algorithm repeated produces bitwise-identical
// per-instance results to running the single-instance plan once per
// instance from the same fill stream, for every algorithm of every
// registered expression at a random small instance — at blas worker
// caps 1, 2, and 4, so the kernels' parallel fan-out is held to the
// same bitwise standard as the serial path, and at a batch wider than
// one fused chunk (72 > 64).
func TestBatchPlanMatchesSequential(t *testing.T) {
	defer blas.SetMaxWorkers(blas.SetMaxWorkers(0))
	for _, workers := range []int{1, 2, 4} {
		blas.SetMaxWorkers(workers)
		rng := xrand.New(0xba7c4)
		count := 3
		if workers > 1 {
			count = 72
		}
		for _, name := range expr.Names() {
			ex, err := expr.Lookup(name)
			if err != nil {
				t.Fatalf("lookup %q: %v", name, err)
			}
			inst := make(expr.Instance, ex.Arity())
			for i := range inst {
				inst[i] = 5 + rng.Intn(28)
			}
			algs := ex.Algorithms(inst)
			for ai := range algs {
				same := make([]*expr.Algorithm, count)
				for j := range same {
					same[j] = &algs[ai]
				}
				checkBatchMatchesSequential(t, fmt.Sprintf("%s/identical workers=%d", name, workers), ai, same)
			}
		}
	}
}

// TestMixedBatchPlanMatchesSequential pins the heterogeneous
// equivalence property: a mixed batch (one expression, one algorithm
// family, instances of different shapes padded to a common stride)
// produces bitwise-identical per-instance results to compiling and
// executing each instance's single plan from the same fill stream, for
// every algorithm of every registered expression.
func TestMixedBatchPlanMatchesSequential(t *testing.T) {
	rng := xrand.New(0x3417ed)
	const count = 5
	for _, name := range expr.Names() {
		ex, err := expr.Lookup(name)
		if err != nil {
			t.Fatalf("lookup %q: %v", name, err)
		}
		// Bind the same expression at count different small instances.
		sets := make([][]expr.Algorithm, count)
		for j := range sets {
			inst := make(expr.Instance, ex.Arity())
			for i := range inst {
				inst[i] = 5 + rng.Intn(28)
			}
			sets[j] = ex.Algorithms(inst)
		}
		for ai := range sets[0] {
			mixed := make([]*expr.Algorithm, count)
			for j := range mixed {
				mixed[j] = &sets[j][ai]
			}
			checkBatchMatchesSequential(t, name+"/mixed", ai, mixed)
		}
	}
}

// TestBatchPlanFillMatchesSequentialStream pins the fill-stream
// contract on its own: FillInputs consumes the deterministic stream
// instance-major, exactly as count consecutive Plan.FillInputs calls
// would, so fused and sequential measurements see identical operand
// contents.
func TestBatchPlanFillMatchesSequentialStream(t *testing.T) {
	algs := expr.NewLstSq().Algorithms(expr.Instance{32, 16, 8})
	alg := &algs[0]
	const count = 4
	bp, err := CompileBatchPlanMixed([]*expr.Algorithm{alg, alg, alg, alg})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := CompilePlan(alg)
	if err != nil {
		t.Fatal(err)
	}
	fused, seq := xrand.New(0xabc), xrand.New(0xabc)
	bp.FillInputs(fused)
	for inst := 0; inst < count; inst++ {
		sp.FillInputs(seq)
		for _, id := range alg.Inputs {
			if !mat.Equal(sp.Operand(id), bp.Operand(inst, id)) {
				t.Errorf("input %q of instance %d differs from the sequential fill stream", id, inst)
			}
		}
	}
}

// checkBatchMatchesSequential compiles algs into one batch plan and
// checks its fill stream and its outputs against per-instance plans.
func checkBatchMatchesSequential(t *testing.T, label string, ai int, algs []*expr.Algorithm) {
	t.Helper()
	mp, err := CompileBatchPlanMixed(algs)
	if err != nil {
		t.Fatalf("%s alg %d: CompileBatchPlanMixed: %v", label, ai, err)
	}
	if mp.Stride()%batchAlign != 0 {
		t.Errorf("%s alg %d: stride %d not %d-aligned", label, ai, mp.Stride(), batchAlign)
	}
	sps := make([]*Plan, len(algs))
	for j, alg := range algs {
		if sps[j], err = CompilePlan(alg); err != nil {
			t.Fatalf("%s alg %d inst %d: CompilePlan: %v", label, ai, j, err)
		}
	}
	fused, seq := xrand.New(0x5eed5), xrand.New(0x5eed5)
	mp.FillInputs(fused)
	for j, sp := range sps {
		sp.FillInputs(seq)
		for _, id := range algs[j].Inputs {
			if !mat.Equal(sp.Operand(id), mp.Operand(j, id)) {
				t.Errorf("%s alg %d: input %q of instance %d differs from the sequential fill stream", label, ai, id, j)
			}
		}
	}
	mp.Execute()
	for j, sp := range sps {
		sp.Execute()
		if !mat.Equal(sp.Output(), mp.Output(j)) {
			t.Errorf("%s alg %d: fused instance %d differs from sequential execution", label, ai, j)
		}
	}
}

// TestMixedBatchPlanRejectsForeignStructure checks the mixed compiler's
// gate: algorithms with different call structures cannot share a plan.
func TestMixedBatchPlanRejectsForeignStructure(t *testing.T) {
	a := expr.NewAATB().Algorithms(expr.Instance{8, 8, 8})
	b := expr.NewLstSq().Algorithms(expr.Instance{16, 8, 4})
	if _, err := CompileBatchPlanMixed([]*expr.Algorithm{&a[0], &b[0]}); err == nil {
		t.Error("mixed plan accepted algorithms of different expressions")
	}
	if len(a) > 1 {
		if _, err := CompileBatchPlanMixed([]*expr.Algorithm{&a[0], &a[1]}); err == nil {
			t.Error("mixed plan accepted two different algorithms of one expression")
		}
	}
}

// TestMixedBatchPlanArenaLayout checks the slab geometry: a
// cache-line-aligned common stride at least as large as every
// instance's own arena, an arena covering all instances, and no
// aliasing between the operands of adjacent instances.
func TestMixedBatchPlanArenaLayout(t *testing.T) {
	small := expr.NewAATB().Algorithms(expr.Instance{24, 16, 8})
	large := expr.NewAATB().Algorithms(expr.Instance{30, 20, 12})
	algs := []*expr.Algorithm{&small[0], &large[0], &small[0], &small[0], &large[0]}
	p, err := CompileBatchPlanMixed(algs)
	if err != nil {
		t.Fatal(err)
	}
	if p.Count() != len(algs) {
		t.Errorf("Count() = %d, want %d", p.Count(), len(algs))
	}
	if p.Stride()%batchAlign != 0 {
		t.Errorf("stride %d not %d-aligned", p.Stride(), batchAlign)
	}
	if got, want := p.ArenaLen(), p.Stride()*len(algs); got != want {
		t.Errorf("ArenaLen() = %d, want stride·count = %d", got, want)
	}
	for _, alg := range algs {
		sp, err := CompilePlan(alg)
		if err != nil {
			t.Fatal(err)
		}
		if p.Stride() < sp.ArenaLen() {
			t.Errorf("stride %d smaller than single-instance arena %d", p.Stride(), sp.ArenaLen())
		}
	}
	for inst := 0; inst+1 < len(algs); inst++ {
		for _, id := range algs[inst].Inputs {
			o0, o1 := p.Operand(inst, id), p.Operand(inst+1, id)
			o0.Data[0] = 42
			if o1.Data[0] == 42 {
				t.Fatalf("operand %q of instances %d and %d alias", id, inst, inst+1)
			}
			o0.Data[0] = 0
		}
	}
}

// TestMixedBatchPlanZeroAllocs extends the zero-alloc guarantee to the
// fused path: after the batch plan is compiled, refilling every
// instance and executing the fused call sequence performs zero heap
// allocations, for identical and mixed instances alike. Runs with a
// single worker: the kernels' parallel fan-out necessarily allocates
// goroutine state.
func TestMixedBatchPlanZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are meaningless")
	}
	defer blas.SetMaxWorkers(blas.SetMaxWorkers(1))
	for _, tc := range []struct {
		name string
		x    expr.Expression
		a, b expr.Instance
	}{
		{"chain", expr.NewChainABCD(), expr.Instance{24, 16, 20, 12, 8}, expr.Instance{30, 18, 22, 14, 9}},
		{"aatb", expr.NewAATB(), expr.Instance{24, 16, 8}, expr.Instance{28, 20, 12}},
		{"lstsq", expr.NewLstSq(), expr.Instance{32, 16, 8}, expr.Instance{40, 20, 10}},
		{"gls", expr.NewGLS(), expr.Instance{16, 24, 16, 8}, expr.Instance{20, 28, 18, 10}},
	} {
		as, bs := tc.x.Algorithms(tc.a), tc.x.Algorithms(tc.b)
		for i := range as {
			for _, batch := range []struct {
				kind string
				algs []*expr.Algorithm
			}{
				{"identical", []*expr.Algorithm{&as[i], &as[i], &as[i], &as[i]}},
				{"mixed", []*expr.Algorithm{&as[i], &bs[i], &as[i], &bs[i]}},
			} {
				p, err := CompileBatchPlanMixed(batch.algs)
				if err != nil {
					t.Fatalf("%s algorithm %d: %v", tc.name, as[i].Index, err)
				}
				rng := xrand.New(0xa11c)
				p.FillInputs(rng) // warm the kernels' buffer pools
				p.Execute()
				allocs := testing.AllocsPerRun(10, func() {
					p.FillInputs(rng)
					p.Execute()
				})
				if allocs != 0 {
					t.Errorf("%s %s algorithm %d (%s): %v allocs per fused fill+execute, want 0",
						batch.kind, tc.name, as[i].Index, as[i].Name, allocs)
				}
			}
		}
	}
}

// TestMeasuredFuseWidth checks the fused-regime gate: small instances
// fuse one full chunk (64) and span the chunk cap in total (512), huge
// instances don't fuse at all, and the chunk width always divides the
// budget consistently with the total width.
func TestMeasuredFuseWidth(t *testing.T) {
	e := NewMeasured()
	small := expr.NewAATB().Algorithms(expr.Instance{8, 8, 8})
	if w := e.FuseChunk(&small[0]); w != 64 {
		t.Errorf("FuseChunk(8-dim aatb) = %d, want the 64 chunk cap", w)
	}
	if w := e.FuseWidth(&small[0]); w != 64*maxFusedChunks {
		t.Errorf("FuseWidth(8-dim aatb) = %d, want chunk·maxFusedChunks = %d", w, 64*maxFusedChunks)
	}
	big := expr.NewAATB().Algorithms(expr.Instance{1200, 1200, 1200})
	if w := e.FuseChunk(&big[0]); w != 0 {
		t.Errorf("FuseChunk(1200-dim aatb) = %d, want 0 (outside the fused regime)", w)
	}
	if w := e.FuseWidth(&big[0]); w != 0 {
		t.Errorf("FuseWidth(1200-dim aatb) = %d, want 0 (outside the fused regime)", w)
	}
}
