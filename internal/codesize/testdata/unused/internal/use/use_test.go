package use_test

import (
	"testing"

	"fixture/internal/lib"
)

func TestShared(t *testing.T) {
	if lib.Shared != 5 {
		t.Fatal("Shared")
	}
}
