package exec

// Fused batch plans: one expression, one algorithm family, N instances
// in one slab arena. Each instance is laid out with its own compiled
// layout, every slab is padded to the largest per-instance arena
// (rounded to the 64-byte batch alignment) so all instances sit at one
// common stride, and each instance's calls bind to the ordinary serial
// kernels. Instances may share a shape (a homogeneous chunk) or differ
// freely. Execution is step-major — call s runs across all instances
// before call s+1 — so the per-dispatch fixed costs the fused path
// exists to amortise (plan bookkeeping, validation, pool round-trips
// hoisted by the kernels' pooling) are paid once per batch, and fills
// consume the deterministic stream instance-major, exactly the stream N
// consecutive single-instance plans would consume.
//
// Because every instance executes the exact serial kernel code a
// single-instance Plan would run, on the same data, fused results are
// bitwise identical to per-instance sequential execution by
// construction.

import (
	"fmt"
	"sync"

	"lamb/internal/expr"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// batchAlign is the instance-stride alignment in float64s (64 bytes), so
// every instance's slab starts on a cache-line boundary.
const batchAlign = 8

// alignedStride rounds an instance arena length up to the batch
// alignment; an empty arena still occupies one aligned slot.
func alignedStride(arenaLen int) int {
	if arenaLen == 0 {
		return batchAlign
	}
	return (arenaLen + batchAlign - 1) &^ (batchAlign - 1)
}

// slabs pools fixed-size arenas of batchSlabFloats float64s. Every
// engine-compiled plan fits one (FuseWidth sizes chunks to it), so
// steady-state fused execution reuses a few warm slabs instead of
// allocating and zeroing a fresh arena per chunk.
var slabs = sync.Pool{New: func() any { return new([batchSlabFloats]float64) }}

// MixedBatchPlan is a compiled algorithm fused over instances of any
// shapes, equal or mixed. Compile once, execute many times; like Plan
// it is not safe for concurrent use.
type MixedBatchPlan struct {
	algs   []*expr.Algorithm
	stride int // common instance slab stride in float64s
	arena  []float64
	slab   *[batchSlabFloats]float64 // pooled backing of arena, or nil
	// Per-instance state: each instance has its own operand index,
	// headers (true shapes, laid out by its own layout within its padded
	// slab), fill recipe, and output slot.
	index   []map[string]int
	insts   [][]mat.Dense
	fills   [][]planFill
	outputs []int
	// steps[s][i] runs call s of instance i on the serial kernels.
	steps      [][]func()
	spdScratch []float64
}

// CompileBatchPlanMixed lowers one algorithm family bound at any
// instances into a fused plan. Every element must be the same algorithm
// of the same expression (same call structure: count, kinds,
// transposes, operand IDs) bound at its own instance; shapes may differ
// freely, and one bound algorithm may repeat. Compilation allocates
// everything an execution will ever need, so Execute is allocation-free
// afterwards. An arena within the slab budget is taken from a pool and
// cleared, so it starts zeroed exactly like a fresh one; Release hands
// it back.
func CompileBatchPlanMixed(algs []*expr.Algorithm) (*MixedBatchPlan, error) {
	if len(algs) < 1 {
		return nil, fmt.Errorf("exec: mixed batch plan needs at least one instance")
	}
	ref := algs[0]
	for i, alg := range algs[1:] {
		if err := sameCallStructure(ref, alg); err != nil {
			return nil, fmt.Errorf("exec: mixed batch instance %d: %w", i+1, err)
		}
	}
	count := len(algs)
	lays := make([]*planLayout, count)
	stride, scratchLen := 0, 0
	for i, alg := range algs {
		lay, err := compileLayout(alg)
		if err != nil {
			return nil, err
		}
		lays[i] = lay
		stride = max(stride, alignedStride(lay.arenaLen))
		scratchLen = max(scratchLen, lay.scratchLen)
	}
	p := &MixedBatchPlan{
		algs:       algs,
		stride:     stride,
		index:      make([]map[string]int, count),
		insts:      make([][]mat.Dense, count),
		fills:      make([][]planFill, count),
		outputs:    make([]int, count),
		spdScratch: make([]float64, scratchLen),
	}
	if n := stride * count; n <= batchSlabFloats {
		p.slab = slabs.Get().(*[batchSlabFloats]float64)
		p.arena = p.slab[:n:n]
		clear(p.arena)
	} else {
		p.arena = make([]float64, n)
	}
	nsteps := len(ref.Calls)
	p.steps = make([][]func(), nsteps)
	for s := range p.steps {
		p.steps[s] = make([]func(), count)
	}
	for inst, alg := range algs {
		lay := lays[inst]
		hs := make([]mat.Dense, len(lay.order))
		for i, id := range lay.order {
			sh := alg.Shapes[id]
			off := inst*stride + lay.offsets[i]
			hs[i] = mat.Dense{
				Rows:   sh.Rows,
				Cols:   sh.Cols,
				Stride: max(sh.Rows, 1),
				Data:   p.arena[off : off+lay.sizes[i]],
			}
		}
		p.index[inst] = lay.index
		p.insts[inst] = hs
		p.fills[inst] = lay.fills
		p.outputs[inst] = lay.output
		for s, c := range alg.Calls {
			run, err := bindCall(c, func(id string) *mat.Dense { return &hs[lay.index[id]] })
			if err != nil {
				return nil, err
			}
			p.steps[s][inst] = run
		}
	}
	return p, nil
}

// sameCallStructure checks that two bound algorithms share one call
// structure — the same algorithm of the same expression at different
// instances. Kinds, transposes, and operand IDs must agree; dimensions
// are the instances' own business.
func sameCallStructure(a, b *expr.Algorithm) error {
	if len(a.Calls) != len(b.Calls) {
		return fmt.Errorf("call counts differ (%d vs %d)", len(a.Calls), len(b.Calls))
	}
	for s := range a.Calls {
		ca, cb := a.Calls[s], b.Calls[s]
		if ca.Kind != cb.Kind || ca.TransA != cb.TransA || ca.TransB != cb.TransB ||
			ca.Out != cb.Out || len(ca.In) != len(cb.In) {
			return fmt.Errorf("call %d differs (%s vs %s)", s, ca.String(), cb.String())
		}
		for i := range ca.In {
			if ca.In[i] != cb.In[i] {
				return fmt.Errorf("call %d operand %d differs (%s vs %s)", s, i, ca.In[i], cb.In[i])
			}
		}
	}
	return nil
}

// FillInputs refills every instance's input operands in place,
// instance-major, with each instance's true shapes — exactly the stream
// order N consecutive single-instance Plan.FillInputs calls would
// consume. It performs no heap allocations.
func (p *MixedBatchPlan) FillInputs(rng *xrand.Rand) {
	for inst := range p.insts {
		for _, f := range p.fills[inst] {
			fillOperand(&p.insts[inst][f.idx], f.kind, p.spdScratch, rng)
		}
	}
}

// Execute runs the fused call sequence once, step-major: call s runs
// across all instances before call s+1. Instances are independent, so
// this ordering is observationally identical to running each instance's
// plan to completion. It performs no heap allocations.
func (p *MixedBatchPlan) Execute() {
	for s := range p.steps {
		for _, run := range p.steps[s] {
			run()
		}
	}
}

// Release returns the plan's pooled arena, if it has one, for reuse by
// a later plan. The plan and every matrix it handed out (Operand,
// Output) must not be used afterwards. A plan that is never released
// is simply garbage-collected.
func (p *MixedBatchPlan) Release() {
	if p.slab != nil {
		slabs.Put(p.slab)
		p.slab, p.arena = nil, nil
	}
}

// Count returns the number of fused instances.
func (p *MixedBatchPlan) Count() int { return len(p.algs) }

// Stride returns the common per-instance slab stride in float64s.
func (p *MixedBatchPlan) Stride() int { return p.stride }

// ArenaLen returns the length in float64s of the whole batch arena.
func (p *MixedBatchPlan) ArenaLen() int { return len(p.arena) }

// SetInput copies src into instance inst's named operand slot. It panics
// if the operand is unknown or the shapes disagree.
func (p *MixedBatchPlan) SetInput(inst int, id string, src *mat.Dense) {
	i, ok := p.index[inst][id]
	if !ok {
		panic(fmt.Sprintf("exec: mixed batch plan has no operand %q", id))
	}
	dst := &p.insts[inst][i]
	if src.Rows != dst.Rows || src.Cols != dst.Cols {
		panic(fmt.Sprintf("exec: input %q is %dx%d, algorithm expects %dx%d",
			id, src.Rows, src.Cols, dst.Rows, dst.Cols))
	}
	mat.Copy(dst, src)
}

// Operand returns instance inst's arena-backed matrix for the given
// operand ID, or nil if that instance has no such operand.
func (p *MixedBatchPlan) Operand(inst int, id string) *mat.Dense {
	if i, ok := p.index[inst][id]; ok {
		return &p.insts[inst][i]
	}
	return nil
}

// Output returns instance inst's arena-backed result operand.
func (p *MixedBatchPlan) Output(inst int) *mat.Dense {
	return &p.insts[inst][p.outputs[inst]]
}
