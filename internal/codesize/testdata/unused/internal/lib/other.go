//go:build ignore

package lib

func fallback() { onlyElsewhere() }
