package faults

// Enabled reports whether any fault in the config can ever fire.
func (c Config) Enabled() bool {
	return c.PktLoss > 0 || c.PktDup > 0 || c.PktDelayProb > 0 ||
		c.SigLoss > 0 || c.SigDup > 0 || c.SigDelayProb > 0 ||
		c.GE.enabled() || c.CellCorrupt > 0 ||
		c.FlapMeanUp > 0 || c.DevLoss > 0
}
