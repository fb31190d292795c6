package aal5

import "xunet/internal/atm"

// CellsForPayload reports how many cells an SDU of n bytes occupies.
func CellsForPayload(n int) int {
	return (n + trailerSize + atm.PayloadSize - 1) / atm.PayloadSize
}
