//go:build !amd64

package mat

// fillGramSPD sets m to G·Gᵀ/n + I with the portable rank-1 loop.
func fillGramSPD(m *Dense, g []float64) { fillGramSPDGeneric(m, g) }
