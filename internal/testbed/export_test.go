package testbed

// Totals sums the per-domain buckets.
func (r *ShardedStormResult) Totals() (launched, succeeded, failed, killed int) {
	for _, d := range r.PerDomain {
		launched += d.Launched
		succeeded += d.Succeeded
		failed += d.Failed
		killed += d.Killed
	}
	return
}
