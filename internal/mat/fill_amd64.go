package mat

// cpuHasAVX reports whether the CPU and OS support 256-bit AVX (CPUID
// feature bits plus XCR0 state enablement). Implemented in
// fill_amd64.s.
func cpuHasAVX() bool

// gramTile8x4AVX computes the 8×4 tile out[r+8·s] = Σ_p a[p·stride+r] ·
// b[p·stride+s] over p in [0, k), in order, with separate multiplies and
// adds. Implemented in fill_amd64.s.
//
//go:noescape
func gramTile8x4AVX(a, b *float64, k, stride int, out *[32]float64)

// haveAVX gates the tile kernel; detected once at startup.
var haveAVX = cpuHasAVX()

// fillGramSPD sets the n×n matrix m to G·Gᵀ/n + I, for G the n×n
// column-major matrix g. With AVX it covers the lower triangle with 8×4
// tiles computed straight from G: rows i0…i0+7 of G are contiguous down
// each column p, and so are the four G[j0+s, p]. Each tile element is
// finished and written to both triangles. A ragged last tile row or
// column is shifted back inside the matrix; elements two tiles share are
// computed identically. Matrices narrower than a tile take the portable
// loop.
func fillGramSPD(m *Dense, g []float64) {
	n := m.Rows
	if !haveAVX || n < 8 {
		fillGramSPDGeneric(m, g)
		return
	}
	inv := 1 / float64(n)
	var tile [32]float64
	for i0 := 0; i0 < n; i0 += 8 {
		i0 := min(i0, n-8)
		for j0 := 0; j0 <= i0+7; j0 += 4 {
			j0 := min(j0, n-4)
			gramTile8x4AVX(&g[i0], &g[j0], n, n, &tile)
			for s := 0; s < 4; s++ {
				j := j0 + s
				col := m.Data[i0+j*m.Stride : i0+j*m.Stride+8]
				row := m.Data[j+i0*m.Stride:]
				for r := max(j-i0, 0); r < 8; r++ {
					v := spdEntry(tile[r+8*s], inv, i0+r == j)
					col[r] = v
					row[r*m.Stride] = v
				}
			}
		}
	}
}
