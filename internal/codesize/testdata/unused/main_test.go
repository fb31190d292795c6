package main

import (
	"testing"

	"fixture/internal/lib"
)

// TestExperiment is a root experiment: what it calls is reached.
func TestExperiment(t *testing.T) { lib.Experiment() }
